// Micro-timings of single module calls, made from outside the simulator
// on inputs taken from the running workload (traced run only), plus the
// process's peak resident memory.
#pragma once

#include <vector>

#include "crypto/schnorr.hpp"
#include "ledger/block.hpp"
#include "ledger/shard_map.hpp"
#include "ledger/utxo.hpp"
#include "ledger/workload.hpp"

namespace perfbench {

/// Full (uncached) Schnorr verification of `tx`'s signature, µs per call.
double verify_us(const cyc::ledger::Transaction& tx);
/// Schnorr signing of `tx`'s body with `keys`, µs per call.
double sign_us(const cyc::ledger::Transaction& tx,
               const cyc::crypto::KeyPair& keys);
/// SHA-256 over `data`, ns per 64-byte compression block (padding
/// included).
double sha256_ns_per_block(const cyc::Bytes& data);
/// Copy of one shard store (the per-member per-round copy), µs per copy.
double utxo_copy_us(const cyc::ledger::UtxoStore& store);
/// Apply every transaction of `block` to each store of `pre` (the
/// pre-round shard state), µs for the whole block. `matches` reports
/// whether the result digests equal `post` (the engine's own state).
double block_apply_us(std::vector<cyc::ledger::UtxoStore> pre,
                      const cyc::ledger::Block& block,
                      const std::vector<cyc::ledger::UtxoStore>& post,
                      bool& matches);
/// ShardMap::shard_key over every workload account, ns per lookup.
double shard_lookup_ns(const cyc::ledger::ShardMap& map,
                       const cyc::ledger::WorkloadGenerator& workload);
/// Peak resident set size of this process (VmHWM), in MiB; 0 if unknown.
double peak_rss_mb();

}  // namespace perfbench
