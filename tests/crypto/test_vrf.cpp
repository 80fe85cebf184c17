#include "crypto/vrf.hpp"

#include <gtest/gtest.h>

#include <set>

namespace cyc::crypto {
namespace {

TEST(Vrf, ProveVerify) {
  const KeyPair kp = KeyPair::from_seed(1);
  const Bytes input = bytes_of("round-1-randomness");
  const VrfOutput out = vrf_prove(kp, input);
  EXPECT_TRUE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, Unique) {
  // The VRF output for (sk, input) must be unique and reproducible.
  const KeyPair kp = KeyPair::from_seed(2);
  const Bytes input = bytes_of("input");
  EXPECT_EQ(vrf_prove(kp, input), vrf_prove(kp, input));
}

TEST(Vrf, ProofEqualsSecretKeySignature) {
  // Proving with the key pair reuses its public key; the proof must stay
  // the signature sign(sk, ...) over the domain-separated input.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const KeyPair kp = KeyPair::from_seed(seed + 500);
    const Bytes input = concat({bytes_of("round"), be64(seed)});
    EXPECT_EQ(vrf_prove(kp, input).proof,
              sign(kp.sk, concat({bytes_of("cyc.vrf"), input})))
        << "seed=" << seed;
  }
}

TEST(Vrf, DifferentInputsDifferentOutputs) {
  const KeyPair kp = KeyPair::from_seed(3);
  std::set<std::string> hashes;
  for (int i = 0; i < 50; ++i) {
    const VrfOutput out = vrf_prove(kp, concat({bytes_of("in"), be64(i)}));
    const Bytes h = digest_to_bytes(out.hash);
    hashes.insert(std::string(h.begin(), h.end()));
  }
  EXPECT_EQ(hashes.size(), 50u);
}

TEST(Vrf, DifferentKeysDifferentOutputs) {
  const Bytes input = bytes_of("shared input");
  std::set<std::string> hashes;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const KeyPair kp = KeyPair::from_seed(seed + 10);
    const Bytes h = digest_to_bytes(vrf_prove(kp, input).hash);
    hashes.insert(std::string(h.begin(), h.end()));
  }
  EXPECT_EQ(hashes.size(), 50u);
}

TEST(Vrf, WrongKeyRejected) {
  const KeyPair a = KeyPair::from_seed(4), b = KeyPair::from_seed(5);
  const Bytes input = bytes_of("input");
  const VrfOutput out = vrf_prove(a, input);
  EXPECT_FALSE(vrf_verify(b.pk, input, out));
}

TEST(Vrf, WrongInputRejected) {
  const KeyPair kp = KeyPair::from_seed(6);
  const VrfOutput out = vrf_prove(kp, bytes_of("A"));
  EXPECT_FALSE(vrf_verify(kp.pk, bytes_of("B"), out));
}

TEST(Vrf, ForgedHashRejected) {
  // An adversary cannot claim an arbitrary hash: the output is bound to
  // the proof.
  const KeyPair kp = KeyPair::from_seed(7);
  const Bytes input = bytes_of("input");
  VrfOutput out = vrf_prove(kp, input);
  out.hash[0] ^= 1;
  EXPECT_FALSE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, ForgedProofRejected) {
  const KeyPair kp = KeyPair::from_seed(8);
  const Bytes input = bytes_of("input");
  VrfOutput out = vrf_prove(kp, input);
  out.proof.s = (out.proof.s + 1) % kQ;
  EXPECT_FALSE(vrf_verify(kp.pk, input, out));
}

TEST(Vrf, SerializationRoundTrip) {
  const KeyPair kp = KeyPair::from_seed(9);
  const VrfOutput out = vrf_prove(kp, bytes_of("serialize me"));
  EXPECT_EQ(VrfOutput::deserialize(out.serialize()), out);
}

TEST(Vrf, OutputUniformity) {
  // The top bit of the VRF hash should be ~uniform across inputs.
  const KeyPair kp = KeyPair::from_seed(10);
  int ones = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const VrfOutput out = vrf_prove(kp, be64(i));
    if (out.hash[0] & 0x80) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / trials, 0.5, 0.05);
}

}  // namespace
}  // namespace cyc::crypto
