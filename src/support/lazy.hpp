// A value computed on first use and remembered. The decoded views of
// shared payloads keep their sub-decodes and signature verdicts in these
// (see "Execution model" in src/protocol/README.md).
#pragma once

#include <optional>

namespace cyc {

/// Empty until the first get() runs `compute`; every later get() returns
/// that result. A compute that throws stores nothing, so the next get()
/// runs it again. get() is const because the owner's content is
/// immutable and the remembered value is a pure function of it. Not
/// thread-safe: its owners live on one engine's thread.
template <class T>
class Lazy {
 public:
  template <class Compute>
  const T& get(Compute&& compute) const {
    if (!value_) value_.emplace(compute());
    return *value_;
  }

 private:
  mutable std::optional<T> value_;
};

}  // namespace cyc
