#include "sched/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "sched/event_queue.hpp"
#include "sched/layout_optimizer.hpp"
#include "sched/maslov.hpp"
#include "surgery/surgery_model.hpp"
#include "telemetry/recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace autobraid {
namespace {

/** A SWAP (or fused gate) in flight, applied to the layout on finish. */
struct SwapRecord
{
    Qubit a = kNoQubit;
    Qubit b = kNoQubit;
};

/**
 * The one router of a run: merge regions under lattice surgery;
 * otherwise braid paths from the stack finder in Maslov mode and under
 * the AutoBraid policies, or from the greedy baseline, which takes
 * every corner as an endpoint when defects may have killed its fixed
 * NW corner. The layout optimizer, which runs only when the full
 * AutoBraid policy schedules braids, routes its swap sets with the
 * same stack finder.
 */
std::unique_ptr<PathFinder>
makeFinder(const Grid &grid, const SchedulerConfig &config,
           SchedulerBackend backend, bool maslov_mode)
{
    if (backend == SchedulerBackend::LatticeSurgery)
        return std::make_unique<LatticeSurgeryFinder>(
            grid, config.dead_vertices);
    if (maslov_mode || config.policy != SchedulerPolicy::Baseline)
        return std::make_unique<StackPathFinder>(grid,
                                                 config.route_jobs);
    return std::make_unique<GreedyPathFinder>(
        grid, config.baseline_order, !config.dead_vertices.empty());
}

/** One scheduling run's mutable state. */
class Engine
{
  public:
    Engine(const Circuit &circuit, const Dag &dag, const Grid &grid,
           const SchedulerConfig &config, const Placement &placement,
           bool maslov_mode, RunLimit limit)
        : backend_(maslov_mode ? SchedulerBackend::Braiding
                               : config.backend),
          limit_(limit),
          criticality_(dag.criticality(
              backendDurationFn(config.cost, backend_))),
          circuit_(&circuit),
          grid_(&grid),
          config_(&config),
          placement_(placement),
          front_(dag),
          finder_(makeFinder(grid, config, backend_, maslov_mode)),
          busy_until_(static_cast<size_t>(circuit.numQubits()), 0),
          network_(grid),
          maslov_mode_(maslov_mode),
          level_sync_(!maslov_mode &&
                      config.policy == SchedulerPolicy::Baseline),
          in_level_(circuit.size(), 0),
          blocked_mask_(static_cast<size_t>(grid.numVertices())),
          vertex_busy_(static_cast<size_t>(grid.numVertices()), 0),
          hold_start_(static_cast<size_t>(grid.numVertices()), 0),
          tracing_(config.record_trace || config.record_lifecycle)
    {
        for (VertexId v : config.dead_vertices) {
            require(v >= 0 && v < grid.numVertices(),
                    "dead vertex out of range");
            blocked_mask_.set(static_cast<size_t>(v));
        }
        routable_vertices_ =
            static_cast<size_t>(grid.numVertices()) -
            blocked_mask_.countSet();
        result_.backend = backend_;
    }

    ScheduleResult
    run()
    {
        AUTOBRAID_SPAN(maslov_mode_ ? "sched.run_maslov"
                                    : "sched.run");
        Cycles t = 0;
        while (true) {
            dispatch(t);
            if (cannotBeat(t)) {
                // The caller discards it: no clamp, recording or trace.
                AUTOBRAID_COUNT("sched.runs_aborted");
                ScheduleResult stopped;
                stopped.backend = backend_;
                stopped.dispatch_instants = result_.dispatch_instants;
                stopped.valid = false;
                return stopped;
            }
            if (maslov_mode_ &&
                phases_without_execution_ >
                    4 * static_cast<size_t>(grid_->numCells()) + 16) {
                result_.valid = false;
                break;
            }
            if (front_.done())
                break;
            if (events_.empty()) {
                if (maslov_mode_) {
                    result_.valid = false; // starved; caller discards
                    break;
                }
                panic("BraidScheduler: deadlock with %zu gates left",
                      circuit_->size() - front_.retiredCount());
            }
            t = events_.nextTime();
            for (const Event &e : events_.popBatch())
                complete(t, e);
            if (front_.done())
                break;
        }
        result_.makespan = makespan_;
        // Clamp the busy cycles to the schedule window [0, makespan]:
        // vertex_busy_ accrues each hold's whole window when it is
        // reserved, and a hold can reach past the final retirement,
        // which would inflate the numerator beyond
        // makespan * routable_vertices and break the 0<=avg<=peak<=1
        // oracle. Only the holds still pending and those released since
        // the last retirement can (a starved Maslov run keeps issuing
        // swap phases after it); each keeps its cycles up to the
        // makespan, none if it started later.
        const auto clamp = [this](Cycles start, Cycles release,
                                  VertexId v) {
            if (release > makespan_)
                vertex_busy_[static_cast<size_t>(v)] -=
                    release - std::max(start, makespan_);
        };
        for (const auto &[release, v] : holds_)
            clamp(hold_start_[static_cast<size_t>(v)], release, v);
        for (const LateHold &h : released_late_)
            clamp(h.start, h.release, h.vertex);
        // Utilization is over the routable fabric: dead vertices can
        // never carry a braid, so they do not belong in the denominator.
        if (makespan_ > 0 && routable_vertices_ > 0)
            result_.avg_utilization =
                static_cast<double>(std::accumulate(
                    vertex_busy_.begin(), vertex_busy_.end(),
                    Cycles{0})) /
                (static_cast<double>(makespan_) *
                 static_cast<double>(routable_vertices_));
        if (config_->record_lifecycle)
            result_.recording =
                std::make_shared<telemetry::FlightRecording>(
                    flightRecording(*circuit_, *grid_, config_->policy,
                                    backend_, result_.trace,
                                    std::move(blocked_),
                                    std::move(vertex_busy_),
                                    makespan_));
        if (!config_->record_trace)
            result_.trace = {};
        return result_;
    }

  private:
    /** Effective backend (Maslov mode always schedules braids). */
    const SchedulerBackend backend_;
    const RunLimit limit_;

    /**
     * Per gate, its duration plus its longest chain of successors,
     * timed as the engine times gates: the makespan is at least a
     * gate's start plus its criticality.
     */
    const std::vector<Cycles> criticality_;

    /** Largest issue time + criticality over the issued gates. */
    Cycles committed_ = 0;
    const Circuit *circuit_;
    const Grid *grid_;
    const SchedulerConfig *config_;
    Placement placement_;
    ReadyFront front_;
    std::unique_ptr<PathFinder> finder_;
    EventQueue events_;
    std::vector<Cycles> busy_until_;

    /**
     * Stall cause attributed to this instant's routing failures,
     * refreshed by the braid-dispatch stages (valid only while
     * recording and only for the current instant).
     */
    telemetry::StallCause route_fail_cause_ =
        telemetry::StallCause::Congestion;

    SwapNetwork network_;
    const bool maslov_mode_;

    /**
     * The baseline executes the circuit level by level, with no overlap
     * across dependence levels (the GP scheduler of [10] processes one
     * time-step's gates to completion before starting the next).
     */
    const bool level_sync_;
    std::vector<uint8_t> in_level_;
    size_t level_remaining_ = 0;

    /**
     * The run's vertex state, one bit per vertex: dead (set once, in
     * the constructor) or held by an in-flight region now. Set on
     * reserve and cleared when dispatch() releases the hold, so the
     * finders read packed words and copy the mask word-wise.
     */
    BlockedBitset blocked_mask_;

    /**
     * Min-heap of (release cycle, vertex), one entry per held vertex:
     * the finders route around blocked vertices, so a held vertex is
     * never reserved again before its release. Its size is the number
     * of vertices held now.
     */
    std::vector<std::pair<Cycles, VertexId>> holds_;

    /** A released hold that ended after the makespan at its release. */
    struct LateHold
    {
        Cycles start;
        Cycles release;
        VertexId vertex;
    };

    /**
     * The holds released since the last retirement that ended after
     * it: the only released holds that can reach past the makespan.
     */
    std::vector<LateHold> released_late_;
    size_t routable_vertices_ = 0;

    /**
     * Per vertex, the cycles its holds cover, accrued in full when a
     * hold is reserved and clamped to the makespan at run end: the
     * utilization numerator and the recording's heatmap.
     */
    std::vector<Cycles> vertex_busy_;

    /** Per vertex, the cycle its current (or last) hold started. */
    std::vector<Cycles> hold_start_;

    /** Blocked examinations, in time order (only while recording). */
    std::vector<telemetry::BlockedEvent> blocked_;

    /** Whether the run keeps a trace: returned, or recorded from. */
    const bool tracing_;

    // Reused per-instant scratch (allocation-free dispatch loop).
    std::vector<GateIdx> braid_gates_;
    std::vector<GateIdx> local_snapshot_;
    std::vector<CxTask> task_scratch_;
    std::vector<CxTask> failed_tasks_;
    std::vector<uint8_t> movable_;
    std::vector<GateIdx> adjacent_;
    std::vector<uint8_t> excluded_;
    std::vector<CxTask> swap_tasks_;

    std::vector<SwapRecord> swap_records_;
    size_t swaps_in_flight_ = 0;
    size_t braids_in_flight_ = 0;
    size_t gates_in_flight_ = 0;
    int parity_ = 0;
    size_t phases_without_execution_ = 0;
    Cycles makespan_ = 0;
    ScheduleResult result_;

    /**
     * True when the run, just past dispatch instant @p t, provably
     * cannot finish strictly below the limit's cutoff. The bound is
     * sound: an issued gate's successor chain ends no earlier than
     * committed_, and a gate still ready after instant t starts after
     * t. Only a limited run scans the ready set.
     */
    bool
    cannotBeat(Cycles t) const
    {
        if (limit_.cutoff == RunLimit::kNoCutoff)
            return false;
        Cycles bound = committed_;
        for (GateIdx g : front_.ready())
            bound = std::max(bound, t + criticality_[g]);
        return bound >= limit_.cutoff;
    }

    /** Duration of @p gate under the run's backend, as criticality_. */
    Cycles
    duration(const Gate &gate) const
    {
        return backendGateDuration(config_->cost, backend_, gate);
    }

    /** Issue ready gate @p g at @p t. */
    void
    issue(GateIdx g, Cycles t)
    {
        front_.issue(g);
        committed_ = std::max(committed_, t + criticality_[g]);
    }

    bool
    qubitFree(Qubit q, Cycles t) const
    {
        return busy_until_[static_cast<size_t>(q)] <= t;
    }

    bool
    operandsFree(const Gate &g, Cycles t) const
    {
        return qubitFree(g.q0, t) &&
               (g.q1 == kNoQubit || qubitFree(g.q1, t));
    }

    void
    markBusy(const Gate &g, Cycles until)
    {
        busy_until_[static_cast<size_t>(g.q0)] = until;
        if (g.q1 != kNoQubit)
            busy_until_[static_cast<size_t>(g.q1)] = until;
    }

    /** Retire a gate, with level bookkeeping for the baseline. */
    void
    retireGate(GateIdx g, Cycles t)
    {
        front_.retire(g);
        ++result_.gates_scheduled;
        makespan_ = std::max(makespan_, t);
        // Every hold released so far ended by t, so by the makespan.
        released_late_.clear();
        if (level_sync_ && in_level_[g]) {
            in_level_[g] = 0;
            require(level_remaining_ > 0, "level bookkeeping underflow");
            --level_remaining_;
        }
    }

    /** Admit every currently ready gate into the next baseline level. */
    void
    refreshLevel()
    {
        for (GateIdx g : front_.ready()) {
            in_level_[g] = 1;
            ++level_remaining_;
        }
    }

    /** True when a gate may dispatch now (level gating for baseline). */
    bool
    admitted(GateIdx g) const
    {
        return !level_sync_ || in_level_[g];
    }

    /** Process one completion event. */
    void
    complete(Cycles t, const Event &e)
    {
        if (e.kind == Event::Kind::GateFinish) {
            const auto g = static_cast<GateIdx>(e.payload);
            if (needsBraid(circuit_->gate(g).kind)) {
                require(braids_in_flight_ > 0,
                        "braid completion underflow");
                --braids_in_flight_;
            }
            require(gates_in_flight_ > 0, "gate completion underflow");
            --gates_in_flight_;
            retireGate(g, t);
        } else {
            const SwapRecord &rec = swap_records_[e.payload];
            placement_.swapQubits(rec.a, rec.b);
            require(swaps_in_flight_ > 0, "swap completion underflow");
            --swaps_in_flight_;
        }
    }

    /** Dispatch everything possible at instant @p t. */
    void
    dispatch(Cycles t)
    {
        ++result_.dispatch_instants;
        {
            // Release the holds that ended by t and unblock their
            // vertices.
            AUTOBRAID_SPAN("route.mask_build");
            while (!holds_.empty() && holds_.front().first <= t) {
                const auto [release, v] = holds_.front();
                const auto vi = static_cast<size_t>(v);
                blocked_mask_.clear(vi);
                if (release > makespan_)
                    released_late_.push_back({hold_start_[vi], release, v});
                std::pop_heap(holds_.begin(), holds_.end(),
                              std::greater<>{});
                holds_.pop_back();
            }
        }
        // A refreshed level may consist entirely of zero-latency gates;
        // keep refreshing until the level has pending work.
        do {
            if (level_sync_ && level_remaining_ == 0)
                refreshLevel();
            dispatchLocalGates(t);
        } while (level_sync_ && level_remaining_ == 0 &&
                 !front_.done());

        braid_gates_.clear();
        for (GateIdx g : front_.ready()) {
            const Gate &gate = circuit_->gate(g);
            if (needsBraid(gate.kind) && operandsFree(gate, t) &&
                admitted(g))
                braid_gates_.push_back(g);
        }
        if (!braid_gates_.empty()) {
            // Deterministic task order regardless of ready-set churn.
            std::sort(braid_gates_.begin(), braid_gates_.end());
            if (maslov_mode_)
                dispatchBraidsMaslov(t, braid_gates_);
            else
                dispatchBraids(t, braid_gates_);
        }

        if (config_->record_lifecycle)
            recordBlocked(t);

        // Sample at every instant — including ones where braids are
        // still in flight but nothing new dispatches — so the reported
        // peak cannot miss a quiet instant.
        const size_t busy = holds_.size();
        AUTOBRAID_GAUGE("sched.busy_counter",
                        static_cast<double>(busy));
        const double util =
            routable_vertices_ > 0
                ? static_cast<double>(busy) /
                      static_cast<double>(routable_vertices_)
                : 0.0;
        AUTOBRAID_OBSERVE("sched.instant_utilization", util,
                          telemetry::ratioBounds());
        result_.peak_utilization =
            std::max(result_.peak_utilization, util);
        result_.max_concurrent_braids =
            std::max(result_.max_concurrent_braids,
                     braids_in_flight_ + swaps_in_flight_);
    }

    /**
     * Log a blocked examination of every gate still ready at the end
     * of the instant. Each waiting gate gets exactly one per dispatch
     * instant, so its waits tile [ready, dispatched] with no gaps: the
     * recording's exact-sum invariant.
     */
    void
    recordBlocked(Cycles t)
    {
        for (GateIdx g : front_.ready()) {
            const Gate &gate = circuit_->gate(g);
            telemetry::StallCause cause =
                telemetry::StallCause::Dependence;
            if (admitted(g) && operandsFree(gate, t) &&
                needsBraid(gate.kind)) {
                // A braid candidate that failed this instant's
                // routing stage. In Maslov mode a non-adjacent pair
                // is waiting on the swap network (congestion), not on
                // a failed route attempt.
                if (maslov_mode_ &&
                    placement_.cellOf(gate.q0)
                            .dist(placement_.cellOf(gate.q1)) != 1)
                    cause = telemetry::StallCause::Congestion;
                else
                    cause = route_fail_cause_;
            }
            blocked_.push_back(telemetry::BlockedEvent{g, t, cause});
        }
    }

    /**
     * Classify this instant's routing failures, from the fabric state
     * *before* the winners reserved their regions: in-flight holds
     * mean congestion; an idle lattice with defects configured means
     * the defects broke routability; an idle, defect-free lattice
     * means the gate lost the same-instant vertex-disjointness
     * competition.
     */
    telemetry::StallCause
    routeFailCause() const
    {
        if (!holds_.empty())
            return telemetry::StallCause::Congestion;
        if (routable_vertices_ <
            static_cast<size_t>(grid_->numVertices()))
            return telemetry::StallCause::Defect;
        return telemetry::StallCause::RegionConflict;
    }

    /** Issue tile-local gates; zero-latency ones retire immediately. */
    void
    dispatchLocalGates(Cycles t)
    {
        bool repeat = true;
        while (repeat) {
            repeat = false;
            local_snapshot_.assign(front_.ready().begin(),
                                   front_.ready().end());
            for (GateIdx g : local_snapshot_) {
                const Gate &gate = circuit_->gate(g);
                if (needsBraid(gate.kind) || !operandsFree(gate, t) ||
                    !admitted(g))
                    continue;
                issue(g, t);
                const Cycles dur = duration(gate);
                if (tracing_)
                    result_.trace.push_back(
                        TraceEntry{g, t, t + dur, Path{}, t + dur,
                                   kNoQubit, kNoQubit});
                if (dur == 0) {
                    retireGate(g, t);
                    repeat = true;
                } else {
                    markBusy(gate, t + dur);
                    ++gates_in_flight_;
                    events_.push(Event{t + dur,
                                       Event::Kind::GateFinish,
                                       static_cast<uint64_t>(g)});
                }
            }
        }
    }

    /** Hold every vertex of @p path from @p t until @p until. */
    void
    reserveChannel(Cycles t, const Path &path, Cycles until)
    {
        // Empty windows hold nothing, so a counted hold always blocks
        // its vertices.
        if (until <= t)
            return;
        for (VertexId v : path.vertices) {
            const auto vi = static_cast<size_t>(v);
            require(!blocked_mask_.test(vi),
                    "reserveChannel: vertex is dead or already held");
            blocked_mask_.set(vi);
            vertex_busy_[vi] += until - t;
            hold_start_[vi] = t;
            holds_.emplace_back(until, v);
            std::push_heap(holds_.begin(), holds_.end(),
                           std::greater<>{});
        }
    }

    /** Issue one two-qubit gate on its acquired region. */
    void
    issueBraid(Cycles t, GateIdx g, const Path &path)
    {
        const Gate &gate = circuit_->gate(g);
        issue(g, t);
        const Cycles dur = duration(gate);
        // A merge region is held for the whole merge+split window; a
        // teleported braid frees its channel after the hold prefix.
        const Cycles channel_hold = config_->channel_hold_cycles;
        const Cycles hold =
            backend_ == SchedulerBackend::Braiding &&
                    channel_hold != 0 && channel_hold < dur
                ? channel_hold
                : dur;
        reserveChannel(t, path, t + hold);
        markBusy(gate, t + dur);
        events_.push(Event{t + dur, Event::Kind::GateFinish,
                           static_cast<uint64_t>(g)});
        ++braids_in_flight_;
        ++gates_in_flight_;
        ++result_.braids_routed;
        AUTOBRAID_OBSERVE("sched.braid_path_length",
                          static_cast<double>(path.length()));
        if (tracing_)
            result_.trace.push_back(TraceEntry{
                g, t, t + dur, path, t + hold, kNoQubit, kNoQubit});
    }

    /** Issue one layout/network SWAP. */
    void
    issueSwap(Cycles t, Qubit a, Qubit b, const Path &path)
    {
        const Cycles dur = config_->cost.swapCycles();
        reserveChannel(t, path, t + dur);
        busy_until_[static_cast<size_t>(a)] = t + dur;
        busy_until_[static_cast<size_t>(b)] = t + dur;
        swap_records_.push_back(SwapRecord{a, b});
        events_.push(Event{t + dur, Event::Kind::SwapFinish,
                           swap_records_.size() - 1});
        ++swaps_in_flight_;
        ++result_.swaps_inserted;
        if (tracing_)
            result_.trace.push_back(
                TraceEntry{kNoGate, t, t + dur, path, t + dur, a, b});
    }

    /**
     * Build routing tasks with criticality priorities filled in, into
     * the persistent task_scratch_ buffer (valid until the next call).
     */
    const std::vector<CxTask> &
    makeTasks(const std::vector<GateIdx> &gates)
    {
        placement_.tasks(*circuit_, gates, task_scratch_);
        for (CxTask &task : task_scratch_)
            task.priority =
                static_cast<long>(criticality_[task.gate]);
        return task_scratch_;
    }

    /** Standard-mode CX dispatch: path finder + layout optimizer. */
    void
    dispatchBraids(Cycles t, const std::vector<GateIdx> &gates)
    {
        const auto &tasks = makeTasks(gates);
        if (config_->record_lifecycle)
            route_fail_cause_ = routeFailCause();
        auto outcome = finder_->findPaths(tasks, blocked_mask_);
        for (const auto &[idx, path] : outcome.routed)
            issueBraid(t, gates[idx], path);
        result_.routing_failures += outcome.failed.size();
        if (!outcome.failed.empty())
            AUTOBRAID_COUNT(
                "sched.routing_failures",
                static_cast<long long>(outcome.failed.size()));

        // The layout optimizer moves qubits via braided SWAPs; its
        // plan geometry is meaningless under lattice surgery.
        const bool trigger =
            backend_ == SchedulerBackend::Braiding &&
            config_->policy == SchedulerPolicy::AutobraidFull &&
            swaps_in_flight_ == 0 && outcome.failed.size() >= 2 &&
            outcome.ratio() < config_->p_threshold;
        if (!trigger)
            return;
        ++result_.layout_invocations;
        AUTOBRAID_COUNT("sched.layout_invocations");
        failed_tasks_.clear();
        failed_tasks_.reserve(outcome.failed.size());
        for (size_t idx : outcome.failed)
            failed_tasks_.push_back(tasks[idx]);
        movable_.assign(static_cast<size_t>(circuit_->numQubits()),
                        0);
        for (Qubit q = 0; q < circuit_->numQubits(); ++q)
            movable_[static_cast<size_t>(q)] = qubitFree(q, t) ? 1 : 0;
        const auto plan = proposeSwaps(*finder_, failed_tasks_,
                                       placement_, blocked_mask_,
                                       movable_);
        for (const PlannedSwap &s : plan)
            issueSwap(t, s.a, s.b, s.path);
    }

    /** Maslov-mode dispatch: neighbour CX + odd-even swap phases. */
    void
    dispatchBraidsMaslov(Cycles t, const std::vector<GateIdx> &gates)
    {
        if (config_->record_lifecycle)
            route_fail_cause_ = routeFailCause();
        // Execute ready CX gates whose tiles are grid neighbours.
        adjacent_.clear();
        for (GateIdx g : gates) {
            const Gate &gate = circuit_->gate(g);
            if (placement_.cellOf(gate.q0)
                    .dist(placement_.cellOf(gate.q1)) == 1)
                adjacent_.push_back(g);
        }
        size_t issued = 0;
        if (!adjacent_.empty()) {
            const auto &tasks = makeTasks(adjacent_);
            auto outcome = finder_->findPaths(tasks, blocked_mask_);
            for (const auto &[idx, path] : outcome.routed)
                issueBraid(t, adjacent_[idx], path);
            issued = outcome.routed.size();
        }
        if (issued > 0)
            phases_without_execution_ = 0;

        // When stalled with a fully idle machine, advance the network
        // by one odd-even transposition phase. Waiting for tile-local
        // gates too is essential: a decomposed CPhase is CX - RZ - CX,
        // and swapping its operands apart between the two CXs would
        // churn the network.
        const bool stalled = issued == 0 && gates_in_flight_ == 0 &&
                             swaps_in_flight_ == 0;
        if (!stalled)
            return;
        ++phases_without_execution_;
        excluded_.assign(static_cast<size_t>(circuit_->numQubits()),
                         0);
        for (Qubit q = 0; q < circuit_->numQubits(); ++q)
            excluded_[static_cast<size_t>(q)] =
                qubitFree(q, t) ? 0 : 1;
        const auto pairs =
            network_.phasePairs(parity_, placement_, excluded_);
        parity_ ^= 1;
        swap_tasks_.clear();
        swap_tasks_.reserve(pairs.size());
        for (size_t i = 0; i < pairs.size(); ++i)
            swap_tasks_.push_back(
                CxTask::make(i, placement_.cellOf(pairs[i].first),
                             placement_.cellOf(pairs[i].second)));
        auto outcome = finder_->findPaths(swap_tasks_, blocked_mask_);
        for (const auto &[idx, path] : outcome.routed)
            issueSwap(t, pairs[idx].first, pairs[idx].second, path);
    }
};

} // namespace

BraidScheduler::BraidScheduler(const Circuit &circuit, const Grid &grid,
                               const SchedulerConfig &config)
    : circuit_(&circuit), grid_(&grid), config_(config), dag_(circuit)
{
    if (circuit.numQubits() > grid.numCells())
        fatal("circuit has %d qubits but the grid only has %d tiles",
              circuit.numQubits(), grid.numCells());
}

ScheduleResult
BraidScheduler::run(const Placement &placement, RunLimit limit) const
{
    Engine engine(*circuit_, dag_, *grid_, config_, placement, false,
                  limit);
    return engine.run();
}

ScheduleResult
BraidScheduler::runMaslov(const Placement &placement,
                          RunLimit limit) const
{
    Engine engine(*circuit_, dag_, *grid_, config_, placement, true,
                  limit);
    return engine.run();
}

telemetry::FlightRecording
flightRecording(const Circuit &circuit, const Grid &grid,
                SchedulerPolicy policy, SchedulerBackend backend,
                const std::vector<TraceEntry> &trace,
                std::vector<telemetry::BlockedEvent> blocked,
                std::vector<uint64_t> vertex_busy_cycles,
                Cycles makespan)
{
    telemetry::FlightRecording rec;
    rec.circuit = circuit.name();
    rec.policy = policyCliName(policy);
    rec.backend = backendCliName(backend);
    rec.grid_rows = grid.vertexRows();
    rec.grid_cols = grid.vertexCols();
    rec.makespan = makespan;
    rec.gates.resize(circuit.size());
    for (GateIdx g = 0; g < circuit.size(); ++g) {
        const Gate &gate = circuit.gate(g);
        telemetry::GateRecord &gr = rec.gates[g];
        gr.kind = gateName(gate.kind);
        gr.q0 = gate.q0;
        gr.q1 = gate.q1;
    }
    // Every retired gate finished by the makespan, and a gate still in
    // flight at a starved stop finishes after it.
    for (const TraceEntry &e : trace) {
        if (e.gate == kNoGate)
            continue;
        telemetry::GateRecord &gr = rec.gates[e.gate];
        gr.dispatched = e.start;
        if (e.finish <= makespan)
            gr.retired = e.finish;
    }
    // Walk the log backwards, holding in `ready` the gate's next
    // examination or its dispatch: each wait ends there. The walk
    // leaves `ready` at the first examination. The wait after a never
    // dispatched gate's last examination is still open and is not
    // charged.
    for (telemetry::GateRecord &gr : rec.gates)
        gr.ready = gr.dispatched;
    for (auto ev = blocked.rbegin(); ev != blocked.rend(); ++ev) {
        telemetry::GateRecord &gr = rec.gates[ev->gate];
        if (gr.ready != telemetry::kNoCycle) {
            const auto c = static_cast<size_t>(ev->cause);
            gr.stall[c] += gr.ready - ev->cycle;
            rec.stall_totals[c] += gr.ready - ev->cycle;
        }
        gr.ready = ev->cycle;
        ++gr.blocked_attempts;
    }
    rec.blocked = std::move(blocked);
    rec.vertex_busy_cycles = std::move(vertex_busy_cycles);
    return rec;
}

} // namespace autobraid
