#include "crypto/merkle.hpp"

#include <stdexcept>

#include "support/serde.hpp"

namespace cyc::crypto {

namespace {

Digest hash_leaf(BytesView leaf) {
  return sha256_concat({bytes_of("\x00cyc.leaf"), leaf});
}

Digest hash_node(const Digest& left, const Digest& right) {
  return sha256_concat({bytes_of("\x01cyc.node"),
                        BytesView(left.data(), left.size()),
                        BytesView(right.data(), right.size())});
}

}  // namespace

Bytes MerkleProof::serialize() const {
  Writer w;
  w.u64(index);
  w.u32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& s : siblings) w.bytes(digest_to_bytes(s));
  return w.take();
}

MerkleProof MerkleProof::deserialize(BytesView b) {
  Reader rd(b);
  MerkleProof p;
  p.index = rd.u64();
  const std::uint32_t count = rd.count(4);  // u32 length prefix each
  p.siblings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    p.siblings.push_back(digest_from_bytes(rd.bytes()));
  }
  return p;
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves)
    : leaf_count_(leaves.size()) {
  std::vector<Digest> level;
  level.reserve(leaves.size());
  for (const auto& leaf : leaves) level.push_back(hash_leaf(leaf));
  if (level.empty()) level.push_back(sha256({}));
  levels_.push_back(level);
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      // Odd tail duplicates the last node (Bitcoin-style padding).
      const Digest& right = (i + 1 < prev.size()) ? prev[i + 1] : prev[i];
      next.push_back(hash_node(prev[i], right));
    }
    levels_.push_back(std::move(next));
  }
}

Digest MerkleTree::root() const { return levels_.back().front(); }

MerkleProof MerkleTree::prove(std::uint64_t index) const {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  MerkleProof proof;
  proof.index = index;
  std::size_t pos = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& level = levels_[lvl];
    const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    proof.siblings.push_back(sibling < level.size() ? level[sibling]
                                                    : level[pos]);
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, BytesView leaf,
                        const MerkleProof& proof) {
  Digest acc = hash_leaf(leaf);
  std::uint64_t pos = proof.index;
  for (const auto& sibling : proof.siblings) {
    acc = (pos % 2 == 0) ? hash_node(acc, sibling) : hash_node(sibling, acc);
    pos /= 2;
  }
  return acc == root;
}

}  // namespace cyc::crypto
