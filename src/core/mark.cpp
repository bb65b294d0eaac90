#include "core/mark.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mra {

double average_non_zero(const CounterVector& v) {
  double sum = 0.0;
  std::size_t n = 0;
  for (CounterValue c : v) {
    if (c != 0) {
      sum += static_cast<double>(c);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

const char* to_string(MarkPolicy policy) {
  switch (policy) {
    case MarkPolicy::kAverageNonZero: return "avg-nonzero";
    case MarkPolicy::kMaxValue: return "max";
    case MarkPolicy::kSumNonZero: return "sum";
    case MarkPolicy::kMinNonZero: return "min-nonzero";
  }
  return "?";
}

double apply_mark(MarkPolicy policy, const CounterVector& v) {
  switch (policy) {
    case MarkPolicy::kAverageNonZero:
      return average_non_zero(v);
    case MarkPolicy::kMaxValue: {
      CounterValue m = 0;
      for (CounterValue c : v) m = std::max(m, c);
      return static_cast<double>(m);
    }
    case MarkPolicy::kSumNonZero: {
      double s = 0.0;
      for (CounterValue c : v) s += static_cast<double>(c);
      return s;
    }
    case MarkPolicy::kMinNonZero: {
      CounterValue m = std::numeric_limits<CounterValue>::max();
      bool any = false;
      for (CounterValue c : v) {
        if (c != 0) {
          m = std::min(m, c);
          any = true;
        }
      }
      return any ? static_cast<double>(m) : 0.0;
    }
  }
  throw std::invalid_argument("unknown MarkPolicy");
}

MarkFunction make_mark_function(MarkPolicy policy) {
  return [policy](const CounterVector& v) { return apply_mark(policy, v); };
}

}  // namespace mra
