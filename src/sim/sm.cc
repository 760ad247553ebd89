#include "sim/sm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hsu
{

Sm::Sm(const GpuConfig &cfg, unsigned sm_id, Cache &l1, StatGroup &stats)
    : cfg_(cfg), smId_(sm_id), l1_(l1),
      statSlotCycles_(stats.scalar("sm.slot_cycles")),
      statBusyCycles_(stats.scalar("sm.busy_cycles")),
      statOffloadableCycles_(stats.scalar("sm.offloadable_cycles")),
      statStallCycles_(stats.scalar("sm.stall_cycles")),
      statIdleCycles_(stats.scalar("sm.idle_cycles")),
      statInstrsIssued_(stats.scalar("sm.instrs_issued")),
      statWarpsRetired_(stats.scalar("sm.warps_retired"))
{
    lsu_ = std::make_unique<Lsu>(cfg.lsuQueueSize, l1, stats, "lsu");
    if (cfg.rtUnitEnabled) {
        RtUnitParams rp;
        rp.warpBufferSize = cfg.warpBufferSize;
        rp.fetchMerging = cfg.rtFetchMerging;
        rp.pipelineDepth = cfg.datapath.pipelineDepth;
        rp.name = "rtu";
        rt_ = std::make_unique<RtUnit>(rp, l1, stats);
    }

    warps_.resize(cfg.maxWarpsPerSm);
    subCores_.resize(cfg.subCoresPerSm);
    for (unsigned slot = 0; slot < cfg.maxWarpsPerSm; ++slot)
        subCores_[slot % cfg.subCoresPerSm].slots.push_back(slot);

    // Every cross-boundary wake (LSU group done, store retire, HSU op
    // done, RT line arrival) funnels through this L1's completion
    // queue, so one observer invalidates the cached next-event value
    // whenever the memory system touched this SM's state.
    l1.setCompletionObserver([this] { wakePending_ = true; });
}

void
Sm::addWarp(const WarpTrace *trace)
{
    pending_.push_back(trace);
}

void
Sm::activatePending()
{
    if (pending_.empty())
        return;
    for (unsigned slot = 0; slot < warps_.size() && !pending_.empty();
         ++slot) {
        WarpCtx &w = warps_[slot];
        if (w.active)
            continue;
        w.trace = pending_.front();
        pending_.pop_front();
        w.pc = 0;
        w.pendingTokens = 0;
        w.clearedSinceTick = 0;
        w.beatsIssued = 0;
        w.outstanding = 0;
        w.blockEnd = 0;
        w.order = nextOrder_++;
        w.active = true;
        ++activeCount_;
    }
}

void
Sm::retireFinished(std::uint64_t now)
{
    for (auto &w : warps_) {
        if (w.active && w.pc >= w.trace->ops.size() &&
            w.outstanding == 0 && w.blockEnd <= now) {
            // Per-cycle path: release builds skip the check.
            hsu_debug_assert(w.pendingTokens == 0,
                             "warp retired with pending tokens");
            w.active = false;
            w.trace = nullptr;
            --activeCount_;
            ++statWarpsRetired_;
        }
    }
}

Sm::TryResult
Sm::tryIssue(unsigned slot, SubCore &sc, std::uint64_t now,
             bool &offloadable_attr)
{
    WarpCtx &w = warps_[slot];
    const TraceOp &op = w.trace->ops[w.pc];
    offloadable_attr = op.offloadable;

    const std::uint32_t prod_mask =
        op.produces != kNoToken ? (1u << op.produces) : 0u;
    if ((op.consumesMask | prod_mask) & w.pendingTokens)
        return TryResult::Blocked;

    const unsigned sub_core_id =
        static_cast<unsigned>(&sc - subCores_.data());

    switch (op.type) {
      case OpType::Alu:
      case OpType::Shared:
        // A block of `count` back-to-back SIMD instructions occupies
        // the sub-core's issue port for `count` cycles (GTO would issue
        // them greedily back-to-back anyway).
        sc.busyUntil = now + op.count;
        sc.busyOffloadable = op.offloadable;
        w.blockEnd = now + op.count;
        statInstrsIssued_ += static_cast<double>(op.count);
        ++w.pc;
        return TryResult::Issued;

      case OpType::Load: {
        const auto lines =
            coalesceLines(*w.trace, op, l1_.params().lineBytes);
        WarpCtx *wp = &w;
        MemCompletion done = [this, wp, prod_mask]() {
            wp->pendingTokens &= ~prod_mask;
            wp->clearedSinceTick |= prod_mask;
            anyCleared_ = true;
            --wp->outstanding;
        };
        if (!lsu_->issue(lines, false, std::move(done)))
            return TryResult::Blocked;
        w.pendingTokens |= prod_mask;
        ++w.outstanding;
        ++statInstrsIssued_;
        ++w.pc;
        return TryResult::Issued;
      }

      case OpType::Store: {
        const auto lines =
            coalesceLines(*w.trace, op, l1_.params().lineBytes);
        WarpCtx *wp = &w;
        if (!lsu_->issue(lines, true, [wp]() { --wp->outstanding; }))
            return TryResult::Blocked;
        ++w.outstanding;
        ++statInstrsIssued_;
        ++w.pc;
        return TryResult::Issued;
      }

      case OpType::HsuOp: {
        hsu_assert(rt_ != nullptr,
                   "HSU op in trace but RT unit disabled");
        WarpCtx *wp = &w;
        MemCompletion done = [this, wp, prod_mask]() {
            wp->pendingTokens &= ~prod_mask;
            wp->clearedSinceTick |= prod_mask;
            anyCleared_ = true;
            --wp->outstanding;
        };
        if (!rt_->tryDispatch(sub_core_id, slot, *w.trace, op,
                              std::move(done), now)) {
            return TryResult::Blocked;
        }
        // The warp streams the sequence's `count` instructions from
        // its issue port back-to-back (GTO keeps it greedy, §IV-F).
        sc.busyUntil = now + op.count;
        sc.busyOffloadable = false;
        w.blockEnd = now + op.count;
        w.pendingTokens |= prod_mask;
        ++w.outstanding;
        statInstrsIssued_ += static_cast<double>(op.count);
        ++w.pc;
        return TryResult::Issued;
      }
    }
    hsu_panic("unreachable op type");
}

unsigned
Sm::buildCandidateOrder(const SubCore &sc, unsigned order[64],
                        unsigned &greedy_count) const
{
    // Fixed scratch storage (this runs every sub-core cycle — no heap
    // traffic allowed): greedy warp first (GTO), then the rest
    // oldest-first.
    unsigned count = 0;
    if (sc.greedy >= 0 &&
        warps_[static_cast<unsigned>(sc.greedy)].active &&
        warps_[static_cast<unsigned>(sc.greedy)].pc <
            warps_[static_cast<unsigned>(sc.greedy)].trace->ops.size()) {
        order[count++] = static_cast<unsigned>(sc.greedy);
    }
    greedy_count = count;
    for (unsigned slot : sc.slots) {
        const WarpCtx &w = warps_[slot];
        if (!w.active || static_cast<int>(slot) == sc.greedy)
            continue;
        if (w.pc >= w.trace->ops.size())
            continue; // draining outstanding ops only
        // Insertion sort by age (<= 16 warps per sub-core).
        unsigned pos = count;
        while (pos > greedy_count &&
               warps_[order[pos - 1]].order > w.order) {
            order[pos] = order[pos - 1];
            --pos;
        }
        order[pos] = slot;
        ++count;
    }
    return count;
}

void
Sm::issueSubCore(SubCore &sc, std::uint64_t now)
{
    ++statSlotCycles_;

    if (sc.busyUntil > now) {
        // Mid-block: the issue port is streaming a compressed
        // multi-instruction block.
        ++statBusyCycles_;
        if (sc.busyOffloadable)
            ++statOffloadableCycles_;
        return;
    }

    unsigned order[64];
    unsigned greedy_count = 0;
    unsigned count = buildCandidateOrder(sc, order, greedy_count);
    if (cfg_.scheduler == SchedulerPolicy::RoundRobin &&
        count > greedy_count + 1) {
        // Rotate the non-greedy candidates for a loose round-robin.
        const unsigned n = count - greedy_count;
        const unsigned shift = static_cast<unsigned>(now % n);
        std::rotate(order + greedy_count, order + greedy_count + shift,
                    order + count);
    }

    bool first_block_attr = false;
    bool have_block_attr = false;
    for (unsigned idx = 0; idx < count; ++idx) {
        const unsigned slot = order[idx];
        bool offl = false;
        const TryResult r = tryIssue(slot, sc, now, offl);
        if (r == TryResult::Issued) {
            sc.greedy = static_cast<int>(slot);
            ++statBusyCycles_;
            if (offl)
                ++statOffloadableCycles_;
            return;
        }
        if (!have_block_attr) {
            have_block_attr = true;
            first_block_attr = offl;
        }
    }

    if (have_block_attr) {
        ++statStallCycles_;
        if (first_block_attr)
            ++statOffloadableCycles_;
    } else {
        ++statIdleCycles_;
    }
}

void
Sm::tick(std::uint64_t now)
{
    wakePending_ = false;
    if (anyCleared_) {
        // Ticking consumes the catch-up token bookkeeping: from here
        // on, skipped-gap accounting starts from the current state.
        for (auto &w : warps_)
            w.clearedSinceTick = 0;
        anyCleared_ = false;
    }
    // L1 port arbitration: the LSU and the RT unit's FIFO queue
    // time-share the single L1D access port, alternating priority.
    const bool rt_wants = rt_ && rt_->wantsAccess();
    const bool lsu_wants = lsu_->wantsAccess();
    const bool rt_turn = (now & 1) == 0;
    const bool grant_rt = rt_wants && (rt_turn || !lsu_wants);
    const bool grant_lsu = lsu_wants && !grant_rt;

    if (rt_)
        rt_->tick(grant_rt, now);
    lsu_->tick(grant_lsu, now);

    retireFinished(now);
    activatePending();

    for (auto &sc : subCores_)
        issueSubCore(sc, now);
}

bool
Sm::done() const
{
    if (!pending_.empty() || activeCount_ != 0)
        return false;
    if (!lsu_->drained())
        return false;
    if (rt_ && !rt_->drained())
        return false;
    return true;
}

Cycle
Sm::nextEventCycle(Cycle now) const
{
    // Queued memory traffic contends for the L1 port every cycle.
    if (lsu_->wantsAccess() || (rt_ && rt_->wantsAccess()))
        return now + 1;

    Cycle next = rt_ ? rt_->nextEventCycle(now) : kNeverCycle;
    for (const auto &sc : subCores_) {
        if (sc.busyUntil > now)
            next = std::min(next, sc.busyUntil);
    }
    for (const auto &w : warps_) {
        // A finished warp retires when its trailing block completes.
        if (w.active && w.blockEnd > now)
            next = std::min(next, w.blockEnd);
    }
    return next;
}

namespace
{

/** Dense-phase probe backoff: after kDenseStreak consecutive "next
 *  cycle" answers, nextEventAfterTick answers now + 1 without scanning
 *  for the next kProbeHold ticks. */
constexpr unsigned kDenseStreak = 32;
constexpr unsigned kProbeHold = 32;

} // namespace

Cycle
Sm::nextEventAfterTick(Cycle now)
{
    if (probeHold_ > 0) {
        // Dense phase: skip the scan, answer conservatively. Extra
        // ticks of an eventless SM are no-ops, so this cannot change
        // results — it only caps the probe cost where the scan would
        // keep answering "next cycle" anyway.
        --probeHold_;
        return now + 1;
    }
    const Cycle next = nextEventCycle(now);
    if (next == now + 1) {
        if (++denseStreak_ >= kDenseStreak) {
            probeHold_ = kProbeHold;
            denseStreak_ = 0;
        }
    } else {
        denseStreak_ = 0;
    }
    return next;
}

namespace
{

/** Number of cycles t in [first, last] with t % n == residue. */
std::uint64_t
cyclesWithResidue(std::uint64_t first, std::uint64_t last, std::uint64_t n,
                  std::uint64_t residue)
{
    const std::uint64_t start = first + (residue + n - first % n) % n;
    return start > last ? 0 : (last - start) / n + 1;
}

} // namespace

void
Sm::fastForwardStats(Cycle now, Cycle next)
{
    hsu_debug_assert(next > now + 1, "fast-forward needs a non-empty gap");
    const std::uint64_t gap_cycles = next - now - 1;
    const double gap = static_cast<double>(gap_cycles);

    if (rt_)
        rt_->fastForwardStats(now, next);

    for (auto &sc : subCores_) {
        statSlotCycles_ += gap;
        if (sc.busyUntil > now) {
            // busyUntil is an event bounding `next`, so the block is
            // mid-stream for every skipped cycle.
            statBusyCycles_ += gap;
            if (sc.busyOffloadable)
                statOffloadableCycles_ += gap;
            continue;
        }

        unsigned order[64];
        unsigned greedy_count = 0;
        const unsigned count = buildCandidateOrder(sc, order,
                                                   greedy_count);
        if (count == 0) {
            statIdleCycles_ += gap;
            continue;
        }
        // Candidates exist but none can issue during an eventless gap:
        // every skipped cycle is a stall, attributed (as in
        // issueSubCore) to the first candidate tried that cycle.
        statStallCycles_ += gap;
        // issueSubCore tries every candidate each cycle until one
        // issues; in a gap none do, so each candidate whose tokens are
        // clear re-attempts its HSU dispatch every skipped cycle and
        // is rejected for lack of a free buffer entry (a free entry
        // would have made the dispatch an event bounding the gap).
        // The per-cycle loop counts each of those attempts; compensate
        // them here. Gap-time token state is pendingTokens plus any
        // bits completions cleared after the gap but before this call.
        for (unsigned s = 0; s < count; ++s) {
            const WarpCtx &w = warps_[order[s]];
            const TraceOp &op = w.trace->ops[w.pc];
            if (op.type != OpType::HsuOp)
                continue;
            const std::uint32_t prod =
                op.produces != kNoToken ? (1u << op.produces) : 0u;
            if ((op.consumesMask | prod) &
                (w.pendingTokens | w.clearedSinceTick)) {
                continue; // token-blocked: never reaches the dispatcher
            }
            rt_->accountSkippedDispatchRejects(gap);
        }
        if (cfg_.scheduler == SchedulerPolicy::RoundRobin &&
            count > greedy_count + 1 && greedy_count == 0) {
            // The per-cycle rotation (shift = now % n) changes which
            // blocked warp is tried first; count each head's cycles.
            for (unsigned s = 0; s < count; ++s) {
                const WarpCtx &w = warps_[order[s]];
                if (!w.trace->ops[w.pc].offloadable)
                    continue;
                statOffloadableCycles_ += static_cast<double>(
                    cyclesWithResidue(now + 1, next - 1, count, s));
            }
        } else {
            // GTO, a lone candidate, or a greedy head: the first
            // candidate is the same every skipped cycle.
            const WarpCtx &w = warps_[order[0]];
            if (w.trace->ops[w.pc].offloadable)
                statOffloadableCycles_ += gap;
        }
    }
}

} // namespace hsu
