//===- typecoin/opentx.cpp - Open transactions ---------------------------------===//

#include "typecoin/opentx.h"

namespace typecoin {
namespace tc {

crypto::Digest32 OpenTransaction::templateDigest() const {
  // Erase the holes, then hash the canonical serialization: the open
  // output's owner becomes the invalid key, which writes no bytes.
  Transaction Erased = Template;
  if (OpenInput) {
    if (*OpenInput < Erased.Inputs.size()) {
      Erased.Inputs[*OpenInput].SourceTxid.clear();
      Erased.Inputs[*OpenInput].SourceIndex = 0;
    }
  }
  if (OpenOutput && *OpenOutput < Erased.Outputs.size())
    Erased.Outputs[*OpenOutput].Owner = crypto::PublicKey();

  Writer W;
  W.writeString("typecoin-open-transaction");
  W.writeU8(OpenInput ? 1 : 0);
  W.writeU64(OpenInput ? static_cast<uint64_t>(*OpenInput) : 0);
  W.writeU8(OpenOutput ? 1 : 0);
  W.writeU64(OpenOutput ? static_cast<uint64_t>(*OpenOutput) : 0);
  writeCore(W, Erased);
  return crypto::sha256d(W.buffer());
}

void OpenTransaction::sign(const crypto::PrivateKey &Issuer) {
  IssuerBlob = makeAffirmationBlob(Issuer, templateDigest());
}

Status OpenTransaction::verifyIssuer(const crypto::KeyId &Issuer) const {
  return verifyAffirmationBlob(Issuer.toHex(), templateDigest(),
                               IssuerBlob);
}

Result<Transaction>
OpenTransaction::fill(const std::string &SourceTxid, uint32_t SourceIndex,
                      const crypto::PublicKey &Receiver) const {
  Transaction Filled = Template;
  if (OpenInput) {
    if (*OpenInput >= Filled.Inputs.size())
      return makeError("opentx: open-input index out of range");
    Filled.Inputs[*OpenInput].SourceTxid = SourceTxid;
    Filled.Inputs[*OpenInput].SourceIndex = SourceIndex;
  }
  if (OpenOutput) {
    if (*OpenOutput >= Filled.Outputs.size())
      return makeError("opentx: open-output index out of range");
    if (!Receiver.isValid())
      return makeError("opentx: receiver key is invalid");
    Filled.Outputs[*OpenOutput].Owner = Receiver;
  }
  return Filled;
}

} // namespace tc
} // namespace typecoin
