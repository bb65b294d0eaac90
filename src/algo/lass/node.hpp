// The paper's algorithm: decentralized multi-resource allocation with
// per-resource counter tokens, the `/` total order, dynamic re-scheduling and
// the loan mechanism (§3, §4, Annex A).
//
// This class is a line-faithful translation of the Annex A pseudo-code; the
// few deviations (all defensive) are marked `// [deviation N]` in node.cpp
// and listed in DESIGN.md §5.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "algo/lass/messages.hpp"
#include "algo/lass/token.hpp"
#include "core/allocator.hpp"
#include "core/flat_map.hpp"
#include "core/mark.hpp"
#include "core/small_vector.hpp"
#include "core/trace.hpp"

namespace mra::algo::lass {

/// Tuning knobs of the algorithm.
struct LassConfig {
  int num_sites = 0;
  int num_resources = 0;

  /// Scheduling policy A (§3.3.2). Paper's evaluation: average of non-zero.
  MarkPolicy mark_policy = MarkPolicy::kAverageNonZero;

  /// Loan mechanism (§3.4, §4.5). The paper's "with loan" variant uses
  /// threshold 1: ask a loan when exactly one resource is missing. We
  /// generalise to "at most loan_threshold missing" for the §6 ablation.
  bool enable_loan = false;
  int loan_threshold = 1;

  /// §4.6.1: single-resource requests skip the counter round-trip.
  bool opt_single_resource = true;

  /// §4.6.2: stop forwarding a ReqRes at a site that is certain to obtain
  /// the token before the requester.
  bool opt_stop_forwarding = true;

  /// Site initially holding every token (the paper's elected_node).
  SiteId elected_node = 0;
};

/// One site running the algorithm.
class LassNode final : public AllocatorNode {
 public:
  LassNode(const LassConfig& config, Trace* trace = nullptr);

  // AllocatorNode interface -------------------------------------------------
  void do_request(const ResourceSet& resources) override;
  void do_release() override;
  [[nodiscard]] ProcessState state() const override { return state_; }

  void on_start() override;
  void on_message(SiteId from, const net::Message& msg) override;

  // Introspection for tests / invariant checks ------------------------------
  [[nodiscard]] const ResourceSet& owned_tokens() const { return t_owned_; }
  [[nodiscard]] const ResourceSet& lent_resources() const { return t_lent_; }
  /// The site's view of r's token. Tokens materialize lazily (§13); a
  /// never-seen token reads as the initial state, so a copy is returned.
  [[nodiscard]] LassToken token_snapshot(ResourceId r) const {
    const Slot* s = find_slot(r);
    return s != nullptr ? s->snapshot : LassToken(r, cfg_.num_sites);
  }
  [[nodiscard]] bool loan_asked() const { return loan_asked_; }
  [[nodiscard]] const CounterVector& counter_vector() const { return my_vector_; }
  /// The policy's mark of counter_vector(), cached until my_vector_ changes.
  [[nodiscard]] double current_mark() const {
    if (!mark_valid_) {
      mark_ = apply_mark(cfg_.mark_policy, my_vector_);
      mark_valid_ = true;
    }
    return mark_;
  }
  /// Number of CS entries that completed via a loan.
  [[nodiscard]] std::uint64_t loans_used() const { return loans_used_; }
  [[nodiscard]] std::uint64_t loans_failed() const { return loans_failed_; }

 private:
  /// Everything a site keeps about one resource (DESIGN.md §3, §13): its
  /// view of the token and the local request history (requests for r this
  /// site forwarded or held back, folded into the token when it arrives).
  struct Slot {
    LassToken snapshot;
    core::SmallVector<ReqItem, 1> history;

    Slot(ResourceId r, int num_sites) : snapshot(r, num_sites) {}
  };

  // -- helpers mirroring the pseudo-code procedures --------------------------
  [[nodiscard]] bool owns(ResourceId r) const { return t_owned_.contains(r); }
  /// Materializes r's slot on first touch. A fresh LassToken(r, N) is
  /// exactly the eagerly-initialized state (counter 1, all ids 0, empty
  /// queues, no lender), so lazy creation is behavior-identical while an
  /// untouched site pays 0 bytes for r.
  [[nodiscard]] Slot& slot(ResourceId r) {
    if (at_own_index(r)) return slots_.begin()[r].second;
    return slots_.try_emplace(r, r, cfg_.num_sites).first->second;
  }
  [[nodiscard]] LassToken& tok(ResourceId r) { return slot(r).snapshot; }
  /// Read-only lookup; nullptr means "still in the initial state".
  [[nodiscard]] const Slot* find_slot(ResourceId r) const {
    if (at_own_index(r)) return &slots_.begin()[r].second;
    auto it = slots_.find(r);
    return it == slots_.end() ? nullptr : &it->second;
  }
  /// O(1) path of both lookups: keys are distinct ids in ascending order,
  /// so entry r holds key r exactly when slots 0..r all exist — always once
  /// a site has seen every token, the steady state under contention.
  [[nodiscard]] bool at_own_index(ResourceId r) const {
    const auto i = static_cast<std::size_t>(r);
    return i < slots_.size() && slots_.begin()[i].first == r;
  }
  void set_counter(ResourceId r, CounterValue value) {
    my_vector_[static_cast<std::size_t>(r)] = value;
    mark_valid_ = false;
  }
  [[nodiscard]] SiteId& tok_dir(ResourceId r) {
    return tok_dir_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] ReqItem my_res_request(ResourceId r) const;
  [[nodiscard]] bool is_obsolete(const ReqItem& req) const;
  [[nodiscard]] static bool is_obsolete(const LassToken& t, const ReqItem& req);

  void process_request_item(const ReqItem& req, const std::vector<SiteId>& visited);
  void handle_res_request_as_owner(const ReqItem& req);
  CounterValue assign_counter(const ReqItem& req);
  void reply_counter(const ReqItem& req);
  void process_req_loan(const ReqItem& req);
  [[nodiscard]] bool can_lend(const ReqItem& req) const;
  void process_update(const LassToken& t);
  void process_cnt_needed_empty();
  void serve_queues_after_token();
  void maybe_initiate_loan();
  void enter_cs();
  void send_token(SiteId dst, ResourceId r);

  // -- buffered sends (aggregation mechanism, §4.2.2) ------------------------
  void buffer_request(SiteId dst, ReqItem item);
  void buffer_counter(SiteId dst, ResourceId r, CounterValue value);
  void flush_requests(const std::vector<SiteId>& visited);
  void flush_responses();

  /// Every trace() call site checks tracing() before formatting its line:
  /// with tracing off a site must not build strings it throws away.
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  void trace(const std::string& what);

  // -- configuration ----------------------------------------------------------
  LassConfig cfg_;
  Trace* trace_ = nullptr;

  // -- local variables (Annex A, Figure 9) ------------------------------------
  // Per-site memory budget (DESIGN.md §13): tok_dir_ and my_vector_ stay
  // dense O(M) — M is the paper-fixed resource count (80), independent of
  // N. Everything that used to be O(N) or O(M x heavy) is sparse: slots
  // (token snapshot + request history) materialize on first touch, the
  // aggregation buffers only hold live entries.
  ProcessState state_ = ProcessState::kIdle;
  std::vector<SiteId> tok_dir_;        // father per resource; kNoSite = root
  CounterVector my_vector_;            // counters of the current request
  mutable double mark_ = 0.0;          // current_mark() cache ...
  mutable bool mark_valid_ = false;    // ... cleared by every my_vector_ write
  core::FlatMap<ResourceId, Slot, 1> slots_;  // per-resource records, lazy
  ResourceSet t_required_;             // current request (== current_)
  ResourceSet t_owned_;                // owned tokens
  ResourceSet cnt_needed_;             // counters not yet received
  ResourceSet t_lent_;                 // resources lent out
  bool loan_asked_ = false;
  bool single_res_registered_ = false;  // §4.6.1 bookkeeping

  // -- aggregation buffers (sorted by destination = std::map send order) ------
  core::FlatMap<SiteId, core::SmallVector<ReqItem, 2>, 2> req_buf_;
  core::FlatMap<SiteId, core::SmallVector<CounterItem, 2>, 2> cnt_buf_;
  core::FlatMap<SiteId, core::SmallVector<LassToken, 1>, 1> tok_buf_;

  // -- stats -------------------------------------------------------------------
  std::uint64_t loans_used_ = 0;
  std::uint64_t loans_failed_ = 0;
};

}  // namespace mra::algo::lass
