// The authentication function V (§III-D).
//
// "All processors have access to an authentication function V to verify
// whether a transaction is legitimate, e.g., the sum of all inputs of the
// transaction is no less than the sum of all outputs and there is no
// double-spending."
#pragma once

#include <functional>
#include <string>

#include "ledger/types.hpp"
#include "ledger/utxo.hpp"

namespace cyc::ledger {

enum class TxVerdict : std::uint8_t {
  kValid = 0,
  kMalformed,        // empty inputs/outputs or zero-value output
  kBadSignature,     // spender signature fails
  kUnknownInput,     // input not in the UTXO set
  kNotOwner,         // input owned by someone other than the spender
  kOverspend,        // sum(outputs) > sum(inputs)
  kInternalDoubleSpend,  // same outpoint used twice inside the tx
};

std::string verdict_name(TxVerdict v);

/// Full verification of `tx` against the spender shard's UTXO view.
TxVerdict verify_tx(const Transaction& tx, const UtxoStore& inputs_view);

/// verify_tx with its spender-signature step (the only crypto in V)
/// answered by `signature_ok`, which runs at most once and only where
/// verify_tx would check the signature. Lets a caller that judges the
/// same transaction for many nodes share that verdict.
TxVerdict verify_tx(const Transaction& tx, const UtxoStore& inputs_view,
                    const std::function<bool()>& signature_ok);

/// Convenience wrapper returning the paper's boolean V(tx).
inline bool V(const Transaction& tx, const UtxoStore& inputs_view) {
  return verify_tx(tx, inputs_view) == TxVerdict::kValid;
}

/// Fee of a (valid) transaction: sum(inputs) - sum(outputs).
Amount tx_fee(const Transaction& tx, const UtxoStore& inputs_view);

}  // namespace cyc::ledger
