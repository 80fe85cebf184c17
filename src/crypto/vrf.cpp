#include "crypto/vrf.hpp"

#include "support/serde.hpp"

namespace cyc::crypto {

namespace {
Bytes domain_separated(BytesView input) {
  return concat({bytes_of("cyc.vrf"), input});
}
}  // namespace

Bytes VrfOutput::serialize() const {
  Writer w;
  w.bytes(digest_to_bytes(hash));
  w.u64(proof.r);
  w.u64(proof.s);
  return w.take();
}

VrfOutput VrfOutput::deserialize(BytesView b) {
  Reader rd(b);
  VrfOutput out;
  out.hash = digest_from_bytes(rd.bytes());
  out.proof.r = rd.u64();
  out.proof.s = rd.u64();
  return out;
}

VrfOutput vrf_prove(const KeyPair& keys, BytesView input) {
  const Bytes msg = domain_separated(input);
  VrfOutput out;
  out.proof = sign(keys, msg);
  out.hash = sha256_concat({bytes_of("cyc.vrf.out"), be64(out.proof.r)});
  return out;
}

bool vrf_verify(const PublicKey& pk, BytesView input, const VrfOutput& out) {
  const Bytes msg = domain_separated(input);
  if (!verify(pk, msg, out.proof)) return false;
  const Digest expected =
      sha256_concat({bytes_of("cyc.vrf.out"), be64(out.proof.r)});
  return expected == out.hash;
}

}  // namespace cyc::crypto
