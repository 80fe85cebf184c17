#include "ledger/validator.hpp"

#include <unordered_set>

namespace cyc::ledger {

std::string verdict_name(TxVerdict v) {
  switch (v) {
    case TxVerdict::kValid: return "valid";
    case TxVerdict::kMalformed: return "malformed";
    case TxVerdict::kBadSignature: return "bad-signature";
    case TxVerdict::kUnknownInput: return "unknown-input";
    case TxVerdict::kNotOwner: return "not-owner";
    case TxVerdict::kOverspend: return "overspend";
    case TxVerdict::kInternalDoubleSpend: return "internal-double-spend";
  }
  return "unknown";
}

TxVerdict verify_tx(const Transaction& tx, const UtxoStore& inputs_view) {
  return verify_tx(tx, inputs_view, [&] { return check_tx_signature(tx); });
}

TxVerdict verify_tx(const Transaction& tx, const UtxoStore& inputs_view,
                    const std::function<bool()>& signature_ok) {
  if (tx.inputs.empty() || tx.outputs.empty()) return TxVerdict::kMalformed;
  for (const auto& out : tx.outputs) {
    if (out.amount == 0) return TxVerdict::kMalformed;
  }
  if (!signature_ok()) return TxVerdict::kBadSignature;

  std::unordered_set<OutPoint, OutPointHash> seen;
  Amount in_total = 0;
  for (const auto& in : tx.inputs) {
    if (!seen.insert(in).second) return TxVerdict::kInternalDoubleSpend;
    const auto utxo = inputs_view.get(in);
    if (!utxo) return TxVerdict::kUnknownInput;
    if (!(utxo->owner == tx.spender)) return TxVerdict::kNotOwner;
    in_total += utxo->amount;
  }
  Amount out_total = 0;
  for (const auto& out : tx.outputs) out_total += out.amount;
  if (out_total > in_total) return TxVerdict::kOverspend;
  return TxVerdict::kValid;
}

Amount tx_fee(const Transaction& tx, const UtxoStore& inputs_view) {
  Amount in_total = 0;
  for (const auto& in : tx.inputs) {
    const auto utxo = inputs_view.get(in);
    if (utxo) in_total += utxo->amount;
  }
  Amount out_total = 0;
  for (const auto& out : tx.outputs) out_total += out.amount;
  return in_total >= out_total ? in_total - out_total : 0;
}

}  // namespace cyc::ledger
