//===- support/serialize.h - Bitcoin wire-format serialization -*- C++ -*-===//
//
// Part of the Typecoin reproduction of Crary & Sullivan (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A byte-oriented Writer/Reader pair implementing the Bitcoin wire format:
/// little-endian fixed-width integers, CompactSize varints, and
/// length-prefixed byte strings. Used for Bitcoin transactions/blocks and
/// for the canonical serialization of Typecoin transactions that is hashed
/// into the embedding (paper, Section 3).
///
//===----------------------------------------------------------------------===//

#ifndef TYPECOIN_SUPPORT_SERIALIZE_H
#define TYPECOIN_SUPPORT_SERIALIZE_H

#include "support/bytes.h"
#include "support/result.h"

#include <cstdint>
#include <string>

namespace typecoin {

/// The deepest term nesting (proofs, propositions, conditions and LF
/// syntax, counted together) the decoders accept, and the depth guard
/// of the proof checker and the affine audit. They recurse per level,
/// so this keeps a hostile payload from overflowing the stack.
constexpr unsigned MaxTermNesting = 256;

/// Append-only serializer producing Bitcoin wire-format bytes.
class Writer {
public:
  /// Fixed-width little-endian integers.
  void writeU8(uint8_t V);
  void writeU16(uint16_t V);
  void writeU32(uint32_t V);
  void writeU64(uint64_t V);

  /// Bitcoin CompactSize: 1, 3, 5 or 9 bytes depending on magnitude.
  void writeCompactSize(uint64_t V);

  /// Raw bytes, no length prefix.
  void writeBytes(const uint8_t *Data, size_t Len);
  void writeBytes(const Bytes &Data);
  template <size_t N> void writeBytes(const std::array<uint8_t, N> &Data) {
    writeBytes(Data.data(), N);
  }

  /// CompactSize length prefix followed by the bytes.
  void writeVarBytes(const Bytes &Data);

  /// CompactSize length prefix followed by the UTF-8 bytes of \p S.
  void writeString(const std::string &S);

  /// The serialized buffer so far.
  const Bytes &buffer() const { return Buffer; }
  Bytes takeBuffer() { return std::move(Buffer); }
  size_t size() const { return Buffer.size(); }

  /// Pre-size the underlying buffer (capacity, not length).
  void reserve(size_t N) { Buffer.reserve(Buffer.size() + N); }

  /// Re-append \p Len bytes already written at \p Off — the write-side
  /// half of serialization memoization: a structure serialized earlier
  /// in this buffer is repeated as a bulk copy instead of a recursive
  /// re-serialization.
  void copyFromSelf(size_t Off, size_t Len);

private:
  Bytes Buffer;
};

/// Bounds-checked deserializer over a byte buffer. All reads are fallible;
/// running past the end yields an Error rather than UB.
class Reader {
public:
  explicit Reader(const Bytes &Data) : Data(Data.data()), Len(Data.size()) {}
  Reader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  Result<uint8_t> readU8();
  Result<uint16_t> readU16();
  Result<uint32_t> readU32();
  Result<uint64_t> readU64();
  Result<uint64_t> readCompactSize();
  Result<Bytes> readBytes(size_t N);
  Result<Bytes> readVarBytes();
  Result<std::string> readString();

  template <size_t N> Result<std::array<uint8_t, N>> readArray() {
    if (Pos + N > Len)
      return makeError("read past end of buffer");
    std::array<uint8_t, N> Out;
    std::copy(Data + Pos, Data + Pos + N, Out.begin());
    Pos += N;
    return Out;
  }

  /// Bytes remaining to be read.
  size_t remaining() const { return Len - Pos; }
  bool atEnd() const { return Pos == Len; }

  /// Current read offset / raw access, for readers that memoize decoded
  /// structures by their byte span.
  size_t pos() const { return Pos; }
  const uint8_t *data() const { return Data; }
  /// Advance past \p N bytes without decoding them (the caller has
  /// already interpreted the span).
  Status skip(size_t N);

  /// Fails unless the entire buffer has been consumed; used to reject
  /// trailing garbage after a complete structure.
  Status expectEnd() const;

  /// One level of a recursive decoder, held for its whole call;
  /// `check()` fails past \ref MaxTermNesting levels.
  struct Nest {
    explicit Nest(Reader &R) : R(R) { ++R.Depth; }
    ~Nest() { --R.Depth; }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;
    Status check() const {
      if (R.Depth <= MaxTermNesting)
        return Status::success();
      return makeError("term nesting exceeds " +
                       std::to_string(MaxTermNesting) + " levels");
    }
    Reader &R;
  };

private:
  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  unsigned Depth = 0;
};

} // namespace typecoin

#endif // TYPECOIN_SUPPORT_SERIALIZE_H
