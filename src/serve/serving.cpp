/**
 * @file
 * Implementation of the open-loop serving mode.
 */

#include "serve/serving.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "network/route.hpp"
#include "sim/snapshot.hpp"

namespace dhl {
namespace serve {

namespace {

/** deriveSeed salts of the serve layer's streams, disjoint from every
 *  fault/ops stream index ("ARRV", "TRAK", "FALT"). */
constexpr std::uint64_t kArrivalStreamSalt = 0x41525256ull;
constexpr std::uint64_t kTrackStreamSalt = 0x5452414bull;
constexpr std::uint64_t kFaultStreamSalt = 0x46414c54ull;

} // namespace

void
validate(const ServeConfig &cfg)
{
    core::validate(cfg.dhl);
    fatal_if(cfg.tracks == 0, "serving needs at least one track");
    fatal_if(cfg.stages.empty(), "serving needs a non-empty load profile");
    fatal_if(!(cfg.epoch > 0.0), "serving epoch must be positive");
    fatal_if(cfg.carts_per_track == 0,
             "serving needs at least one cart per track");
    fatal_if(cfg.max_pending == 0,
             "serving admission queue bound must be positive");
    if (cfg.faults.enabled)
        faults::validate(cfg.faults);
    if (!cfg.maintenance.windows.empty())
        ops::validate(cfg.maintenance, cfg.tracks);
    if (cfg.domains.enabled)
        ops::validate(cfg.domains);
    fatal_if(cfg.des_shards != 1,
             "serving des_shards must be 1: the sharded fleet DES was "
             "removed and the fleet always runs one event loop");
    fatal_if(cfg.policy == ops::DispatchPolicy::Te,
             "the serving loop drives TE through cfg.te (--te), not "
             "the ops dispatch policy");
    if (cfg.te.enabled)
        te::validate(cfg.te);
}

ServingSim::ServingSim(const ServeConfig &cfg)
    : cfg_(cfg),
      trace_(sim_, cfg.trace_capacity),
      cart_capacity_(cfg.dhl.cartCapacity().value()),
      serve_stats_("serve")
{
    validate(cfg_);

    tracks_.resize(cfg_.tracks);
    std::vector<faults::FaultState *> states;
    states.reserve(cfg_.tracks);
    for (std::size_t t = 0; t < cfg_.tracks; ++t) {
        TrackSystem &ts = tracks_[t];
        ts.state = std::make_unique<faults::FaultState>(sim_);
        ts.state->attachTrace(&trace_);
        std::string name("track");
        name += std::to_string(t);
        ts.controller = std::make_unique<core::DhlController>(
            sim_, cfg_.dhl, name, deriveSeed(cfg_.seed, kTrackStreamSalt + t));
        ts.controller->attachTrace(&trace_);
        ts.controller->attachFaults(ts.state.get());
        ts.pool.reserve(cfg_.carts_per_track);
        for (std::size_t c = 0; c < cfg_.carts_per_track; ++c)
            ts.pool.push_back(ts.controller->addCart(0.0).id());
        if (cfg_.faults.enabled) {
            faults::FaultConfig fc = cfg_.faults;
            fc.seed = deriveSeed(cfg_.faults.seed, kFaultStreamSalt + t);
            std::string fname("faults");
            fname += std::to_string(t);
            ts.injector = std::make_unique<faults::FaultInjector>(
                sim_, *ts.state, fc, ts.controller->numStations(), fname);
        }
        // Repair completions free capacity the backlog may be waiting
        // on; the pump no-ops outside the epoch's admission window.
        ts.state->onRepair([this] { pump(); });
        states.push_back(ts.state.get());
    }

    if (!cfg_.maintenance.windows.empty())
        maintenance_ = std::make_unique<ops::MaintenanceScheduler>(
            sim_, states, cfg_.maintenance);
    if (cfg_.domains.enabled)
        plants_ = std::make_unique<ops::CorrelatedFaultModel>(
            sim_, states, cfg_.domains);

    arrivals_ = std::make_unique<workloads::StagedArrivalProcess>(
        cfg_.stages, deriveSeed(cfg_.seed, kArrivalStreamSalt));
    slo_.resize(arrivals_->stageCount());

    if (cfg_.te.enabled) {
        // Tenants are the distinct traffic-class tags of the profile in
        // first-appearance order; the class's arrival-mix weight doubles
        // as its fair-share weight.
        std::vector<te::TenantSpec> tenants;
        for (const workloads::StageSpec &stage : cfg_.stages) {
            for (const workloads::RequestClass &rc : stage.mix) {
                bool known = false;
                for (const std::string &tag : tenant_tags_)
                    known = known || tag == rc.tag;
                if (!known) {
                    tenant_tags_.push_back(rc.tag);
                    tenants.push_back({rc.tag, rc.weight});
                }
            }
        }
        te::TeConfig tc =
            ops::teConfigForFleet(cfg_.te, cfg_.dhl, cfg_.tracks);
        if (std::isinf(tc.horizon))
            tc.horizon = arrivals_->totalDuration();
        optical_ = std::make_unique<network::SharedLink>(
            sim_, tc.optical_capacity, "optical");
        optical_route_power_ =
            network::findRoute(tc.route).power().value();
        te_ = std::make_unique<te::TeController>(sim_, tc,
                                                 std::move(tenants));
        // A control tick can clear contention or open downgrade
        // headroom, so the backlog is re-scanned after every tick.
        te_->onTick([this] { pump(); });
        te_->start();
        class_slo_.resize(tenant_tags_.size() * 2);
        serve_stats_.addFormula("optical_served",
                                "requests served on the optical substrate",
                                [this] {
            return static_cast<double>(optical_served_);
        });
        serve_stats_.addFormula("te_downgrades",
                                "bulk requests downgraded to optical",
                                [this] {
            return static_cast<double>(te_downgrades_);
        });
    }

    // Formulas read the SLO accumulators lazily, so a restored fleet
    // dumps the run totals, not just what this process observed.
    serve_stats_.addFormula("offered", "requests offered", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.offered());
        return n;
    });
    serve_stats_.addFormula("served", "requests completed", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.served());
        return n;
    });
    serve_stats_.addFormula("shed", "requests shed at admission", [this] {
        double n = 0.0;
        for (const auto &s : slo_)
            n += static_cast<double>(s.shed());
        return n;
    });
    serve_stats_.addFormula("backlog", "admission queue depth", [this] {
        return static_cast<double>(queue_.size());
    });
    serve_stats_.addFormula("epochs", "epochs completed", [this] {
        return static_cast<double>(epochs_);
    });
}

//===========================================================================
// Stepping
//===========================================================================

bool
ServingSim::done() const
{
    return arrivals_->exhausted() && queue_.empty() && in_flight_ == 0;
}

double
ServingSim::nextBoundary() const
{
    // Draining a backlogged epoch can run past its boundary; the next
    // epoch then starts from wherever the clock actually is.
    return std::max(boundary_ + cfg_.epoch, sim_.now());
}

bool
ServingSim::stepEpoch()
{
    if (done())
        return false;

    const double target = nextBoundary();

    // Admission window opens: backlog first, then this epoch's
    // arrivals at their intended times (late ones fire immediately).
    pumping_ = true;
    pump();
    for (const workloads::ArrivalEvent &ev : arrivals_->take(target)) {
        const double when = std::max(ev.at, sim_.now());
        auto boxed = std::make_shared<workloads::ArrivalEvent>(ev);
        sim_.scheduleAt(when, [this, boxed] { admit(*boxed); });
    }

    // Anything startable has been started and this epoch's arrivals
    // are scheduled; a backlog with an empty event queue can therefore
    // never make progress (a merely busy or repairing fleet always has
    // a trip or repair event pending).
    if (!queue_.empty() && sim_.pendingEvents() == 0)
        fatal("serving stalled: backlog remains but no future event can "
              "free capacity (all tracks down for good?)");

    sim_.runEpoch(target);

    // Admission window closes: finish in-flight requests so the
    // boundary is drained (checkpointable); unstarted backlog carries.
    pumping_ = false;
    while (in_flight_ > 0) {
        if (sim_.step(1) == 0)
            panic("serving drain stalled with requests in flight");
    }

    boundary_ = target;
    ++epochs_;
    return true;
}

void
ServingSim::run(std::size_t max_epochs)
{
    std::size_t steps = 0;
    while (stepEpoch()) {
        ++steps;
        if (max_epochs != 0 && steps >= max_epochs)
            return;
    }
}

//===========================================================================
// Admission
//===========================================================================

bool
ServingSim::fleetDegraded() const
{
    return ops::fleetDegraded(cfg_.policy, tracks_.size(),
                              [this](std::size_t t) {
                                  return tracks_[t].state->serviceUp();
                              });
}

std::size_t
ServingSim::pickTrack(bool degraded) const
{
    const std::size_t n = tracks_.size();
    if (cfg_.policy == ops::DispatchPolicy::RoundRobin) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t t = (rr_next_ + i) % n;
            if (!tracks_[t].pool.empty())
                return t;
        }
        return ops::kNoTrack;
    }
    return ops::mostFreeTrack(
        n, degraded,
        [this](std::size_t t) { return tracks_[t].pool.size(); },
        [this](std::size_t t) { return tracks_[t].state->serviceUp(); });
}

bool
ServingSim::tryStart(const workloads::ArrivalEvent &ev, bool degraded)
{
    const std::size_t t = pickTrack(degraded);
    if (t == ops::kNoTrack)
        return false;
    if (cfg_.policy == ops::DispatchPolicy::RoundRobin)
        rr_next_ = (t + 1) % tracks_.size();

    TrackSystem &ts = tracks_[t];
    const core::CartId cart = ts.pool.back();
    ts.pool.pop_back();
    ++in_flight_;

    const double trips =
        std::max(1.0, std::ceil(ev.bytes / cart_capacity_));
    auto active = std::make_shared<Active>(
        Active{ev, t, cart, static_cast<std::uint64_t>(trips)});
    runTrip(active);
    return true;
}

void
ServingSim::admit(const workloads::ArrivalEvent &ev)
{
    const std::size_t stage = static_cast<std::size_t>(ev.stage);
    slo_[stage].offer();

    stats::SloAccumulator *cls = nullptr;
    bool admit_now = true;
    if (te_) {
        const std::size_t tenant = tenantOf(ev);
        te_->recordUsage(tenant, ev.bytes);
        core::RequestMeta meta;
        meta.priority = ev.priority;
        const te::TeDecision d = te_->decide(tenant, ev.bytes, meta);
        if (d.substrate == te::Substrate::Optical) {
            // Optical requests never queue: the shared link models
            // their contention by sharing the uplink, not by admission
            // control.
            classSlo(tenant, te::Substrate::Optical).offer();
            startOptical(ev, tenant, d.downgraded);
            return;
        }
        cls = &classSlo(tenant, te::Substrate::Dhl);
        cls->offer();
        // d.admit == false holds the request in the queue until a
        // control tick clears the contention (decide() only withholds
        // admission while a future tick is pending, so the hold always
        // resolves).
        admit_now = d.admit;
    }

    if (admit_now && queue_.empty()) {
        const bool down = fleetDegraded();
        if (!ops::belowPriorityFloor(down, ev.priority,
                                     cfg_.min_priority_degraded) &&
            tryStart(ev, down))
            return;
    }

    if (queue_.size() >= cfg_.max_pending) {
        slo_[stage].shed();
        if (cls)
            cls->shed();
        if (trace_.enabled())
            trace_.record("serve", "admission",
                          "shed " + ev.tag + " (queue full)");
        return;
    }
    slo_[stage].defer();
    if (cls)
        cls->defer();
    queue_.push_back(Queued{ev});
}

void
ServingSim::startOptical(const workloads::ArrivalEvent &ev,
                         std::size_t tenant, bool downgraded)
{
    if (downgraded)
        ++te_downgrades_;
    ++in_flight_;
    optical_->startFlow(
        ev.bytes, optical_route_power_,
        [this, stage = static_cast<std::size_t>(ev.stage), at = ev.at,
         tenant](const network::FlowRecord &rec) {
            const double latency = sim_.now() - at;
            slo_[stage].complete(latency, rec.bytes);
            classSlo(tenant, te::Substrate::Optical)
                .complete(latency, rec.bytes);
            optical_energy_ += rec.energy;
            ++served_;
            ++optical_served_;
            --in_flight_;
        });
}

std::size_t
ServingSim::tenantOf(const workloads::ArrivalEvent &ev) const
{
    for (std::size_t t = 0; t < tenant_tags_.size(); ++t)
        if (tenant_tags_[t] == ev.tag)
            return t;
    panic("serve: arrival tag '" + ev.tag + "' has no TE tenant");
}

stats::SloAccumulator &
ServingSim::classSlo(std::size_t tenant, te::Substrate s)
{
    return class_slo_[tenant * 2 + (s == te::Substrate::Optical ? 1 : 0)];
}

const stats::SloAccumulator &
ServingSim::teClassSlo(std::size_t tenant, te::Substrate s) const
{
    fatal_if(!te_, "TE is not enabled on this serving fleet");
    fatal_if(tenant >= tenant_tags_.size(), "TE class index out of range");
    return class_slo_[tenant * 2 + (s == te::Substrate::Optical ? 1 : 0)];
}

void
ServingSim::pump()
{
    if (!pumping_)
        return;
    while (!queue_.empty()) {
        const bool down = fleetDegraded();
        bool progressed = false;
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (ops::belowPriorityFloor(down, it->ev.priority,
                                        cfg_.min_priority_degraded))
                continue; // held below the degraded-mode floor
            if (te_) {
                // A queued request's substrate is fixed at admission
                // (DHL); only the admit verdict is re-evaluated, so a
                // contention hold behaves exactly like the degraded
                // floor: skipped now, revisited on the next pump.
                core::RequestMeta meta;
                meta.priority = it->ev.priority;
                if (!te_->decide(tenantOf(it->ev), it->ev.bytes, meta)
                         .admit)
                    continue;
            }
            if (!tryStart(it->ev, down))
                return; // admissible work, no capacity: stop scanning
            queue_.erase(it);
            progressed = true;
            break;
        }
        if (!progressed)
            return; // everything queued is held by the floor
    }
}

//===========================================================================
// Request lifecycle
//===========================================================================

void
ServingSim::runTrip(const std::shared_ptr<Active> &a)
{
    core::DhlController &ctl = *tracks_[a->track].controller;
    ctl.open(a->cart, [this, a](core::Cart &, core::DockingStation &) {
        tracks_[a->track].controller->close(a->cart, [this, a](core::Cart &) {
            if (--a->trips_left > 0)
                runTrip(a);
            else
                finishRequest(*a);
        });
    });
}

void
ServingSim::finishRequest(const Active &a)
{
    const std::size_t stage = static_cast<std::size_t>(a.ev.stage);
    const double latency = sim_.now() - a.ev.at;
    slo_[stage].complete(latency, a.ev.bytes);
    if (te_)
        classSlo(tenantOf(a.ev), te::Substrate::Dhl)
            .complete(latency, a.ev.bytes);
    ++served_;
    tracks_[a.track].pool.push_back(a.cart);
    --in_flight_;
    pump();
}

//===========================================================================
// Checkpoint/restore
//===========================================================================

namespace {

/** The configuration fingerprint: a checkpoint only resumes the run
 *  it came from. */
template <class Ar>
void
visitConfig(const ServeConfig &cfg, Ar &ar)
{
    sim::SnapshotScope scope(ar, "config");
    ar.expect("tracks", cfg.tracks);
    ar.expect("seed", cfg.seed);
    ar.expect("epoch", cfg.epoch);
    ar.expect("carts_per_track", cfg.carts_per_track);
    ar.expect("max_pending", cfg.max_pending);
    ar.expect("policy", ops::to_string(cfg.policy));
    ar.expect("min_priority_degraded", cfg.min_priority_degraded);
    ar.expect("faults", cfg.faults.enabled);
    ar.expect("maintenance_windows", cfg.maintenance.windows.size());
    ar.expect("domains", cfg.domains.enabled);
    ar.expect("te", cfg.te.enabled);
    if (cfg.te.enabled) {
        sim::SnapshotScope ts(ar, "te");
        ar.expect("mode", te::to_string(cfg.te.mode));
        ar.expect("period", cfg.te.control_period);
        ar.expect("small_bytes", cfg.te.small_bytes);
        ar.expect("optical_capacity", cfg.te.optical_capacity);
        ar.expect("dhl_capacity", cfg.te.dhl_capacity);
        ar.expect("route", cfg.te.route);
        ar.expect("headroom", cfg.te.headroom);
        ar.expect("multiplier", cfg.te.usage_multiplier);
        ar.expect("history", cfg.te.history);
        ar.expect("floor", cfg.te.min_priority_contended);
    }
    ar.count("stages", cfg.stages.size());
    ar.each("stage", cfg.stages, [&ar](const workloads::StageSpec &s) {
        ar.expect("name", s.name);
        ar.expect("duration", s.duration);
        ar.expect("start_rate", s.start_rate);
        ar.expect("end_rate", s.end_rate);
        ar.count("classes", s.mix.size());
        ar.each("class", s.mix, [&ar](const workloads::RequestClass &rc) {
            ar.expect("tag", rc.tag);
            ar.expect("weight", rc.weight);
            ar.expect("median_bytes", rc.median_bytes);
            ar.expect("sigma", rc.sigma);
            ar.expect("priority", rc.priority);
        });
    });
}

} // namespace

template <class Self, class Ar>
void
ServingSim::visit(Self &self, Ar &ar)
{
    visitConfig(self.cfg_, ar);
    {
        sim::SnapshotScope scope(ar, "serve");
        ar.io("epochs", self.epochs_);
        ar.io("boundary", self.boundary_);
        ar.io("rr_next", self.rr_next_);
        ar.io("served", self.served_);
        ar.seq("queued", "q", self.queue_, [&](auto &q) {
            auto &ev = q.ev;
            ar.io("at", ev.at);
            ar.io("bytes", ev.bytes);
            ar.io("tag", ev.tag);
            ar.io("stage", ev.stage);
            ar.io("priority", ev.priority);
            if constexpr (Ar::loading) {
                fatal_if(ev.stage < 0 ||
                             static_cast<std::size_t>(ev.stage) >=
                                 self.slo_.size(),
                         "serving restore: a queued request's stage is "
                         "outside the load profile");
                fatal_if(self.te_ &&
                             std::find(self.tenant_tags_.begin(),
                                       self.tenant_tags_.end(),
                                       ev.tag) == self.tenant_tags_.end(),
                         "serving restore: a queued request's tag is "
                         "not a TE tenant");
            }
        });
        ar.each("s", self.slo_);
    }
    ar.io("kernel", self.sim_);
    ar.io("trace", self.trace_);
    ar.io("arrivals", *self.arrivals_);
    ar.each("t", self.tracks_, [&ar](auto &ts) {
        ar.io("controller", *ts.controller);
        ar.io("faults", *ts.state);
        if (ts.injector)
            ar.io("injector", *ts.injector);
        // Pool *order* matters: which cart serves a trip decides which
        // per-cart breakdown stream the trip consumes, so a restored
        // fleet must hand out carts in the identical sequence.
        ar.count("pool", ts.pool.size());
        ar.each("p", ts.pool);
    });
    if (self.maintenance_)
        ar.io("maintenance", *self.maintenance_);
    if (self.plants_)
        ar.io("plants", *self.plants_);
    if (self.te_) {
        // The drained boundary has zero active flows, so the shared
        // link itself holds no dynamic state worth keeping; the serve
        // layer checkpoints its own optical accumulators instead.
        sim::SnapshotScope ts(ar, "te");
        ar.io("optical_energy", self.optical_energy_);
        ar.io("optical_served", self.optical_served_);
        ar.io("downgrades", self.te_downgrades_);
        ar.each("c", self.class_slo_);
        ar.io("ctl", *self.te_);
    }
}

void
ServingSim::checkpoint(std::ostream &os) const
{
    fatal_if(in_flight_ != 0,
             "serving checkpoint requires a drained epoch boundary");
    sim::SnapshotWriter w(os);
    visit(*this, w);
}

void
ServingSim::restore(std::istream &is)
{
    fatal_if(epochs_ != 0 || sim_.now() != 0.0,
             "serving restore requires a freshly constructed fleet");
    // Empty the event queue: every constructor-scheduled event belongs
    // to a stoppable process, and the kernel's restore requires a
    // drained kernel before it rewinds the clock.
    for (TrackSystem &ts : tracks_)
        if (ts.injector)
            ts.injector->stop();
    if (maintenance_)
        maintenance_->stop();
    if (plants_)
        plants_->stop();
    if (te_)
        te_->stop();
    fatal_if(sim_.pendingEvents() != 0,
             "serving restore found unexpected pending events");

    sim::SnapshotReader r(is);
    visit(*this, r);
}

//===========================================================================
// Measurement
//===========================================================================

const stats::SloAccumulator &
ServingSim::stageSlo(std::size_t stage) const
{
    fatal_if(stage >= slo_.size(), "stage index out of range");
    return slo_[stage];
}

double
ServingSim::stageAvailability(std::size_t stage) const
{
    fatal_if(stage >= slo_.size(), "stage index out of range");
    double start = 0.0;
    for (std::size_t i = 0; i < stage; ++i)
        start += cfg_.stages[i].duration;
    const double end =
        std::min(start + cfg_.stages[stage].duration, sim_.now());
    if (end <= start)
        return 1.0;
    double downtime = 0.0;
    for (const TrackSystem &ts : tracks_)
        downtime += ts.state->serviceDowntime(end) -
                    ts.state->serviceDowntime(start);
    return 1.0 - downtime / (static_cast<double>(tracks_.size()) *
                             (end - start));
}

std::vector<exp::StageSlo>
ServingSim::sloTable() const
{
    std::vector<exp::StageSlo> table;
    table.reserve(slo_.size());
    double start = 0.0;
    for (std::size_t i = 0; i < slo_.size(); ++i) {
        const stats::SloAccumulator &s = slo_[i];
        exp::StageSlo row;
        row.name = cfg_.stages[i].name;
        row.start = start;
        row.duration = cfg_.stages[i].duration;
        row.offered = s.offered();
        row.served = s.served();
        row.deferred = s.deferred();
        row.shed = s.shed();
        const std::vector<double> q =
            s.latencyPercentiles({50.0, 99.0, 99.9});
        row.p50 = q[0];
        row.p99 = q[1];
        row.p999 = q[2];
        row.availability = stageAvailability(i);
        row.goodput = row.duration > 0.0
                          ? s.bytesDelivered() / row.duration
                          : 0.0;
        table.push_back(std::move(row));
        start += cfg_.stages[i].duration;
    }
    return table;
}

double
ServingSim::totalEnergy() const
{
    double e = optical_energy_;
    for (const TrackSystem &ts : tracks_)
        e += ts.controller->totalEnergy();
    return e;
}

const te::TeController &
ServingSim::teController() const
{
    fatal_if(!te_, "TE is not enabled on this serving fleet");
    return *te_;
}

std::vector<exp::ClassSlo>
ServingSim::teTable() const
{
    fatal_if(!te_, "TE is not enabled on this serving fleet");
    // Achieved throughput: delivered bytes over the elapsed makespan,
    // so a mode that drains its backlog slowly scores lower goodput
    // even when everything is eventually served.
    const double duration = sim_.now();
    std::vector<exp::ClassSlo> table;
    table.reserve(class_slo_.size());
    for (std::size_t t = 0; t < tenant_tags_.size(); ++t) {
        for (const te::Substrate s :
             {te::Substrate::Dhl, te::Substrate::Optical}) {
            const stats::SloAccumulator &acc = teClassSlo(t, s);
            exp::ClassSlo row;
            row.name = tenant_tags_[t];
            row.substrate = te::to_string(s);
            row.offered = acc.offered();
            row.served = acc.served();
            row.deferred = acc.deferred();
            row.shed = acc.shed();
            const std::vector<double> q =
                acc.latencyPercentiles({50.0, 99.0});
            row.p50 = q[0];
            row.p99 = q[1];
            row.goodput =
                duration > 0.0 ? acc.bytesDelivered() / duration : 0.0;
            table.push_back(std::move(row));
        }
    }
    return table;
}

std::uint64_t
ServingSim::totalLaunches() const
{
    std::uint64_t n = 0;
    for (const TrackSystem &ts : tracks_)
        n += ts.controller->launches();
    return n;
}

std::uint64_t
ServingSim::totalShed() const
{
    std::uint64_t n = 0;
    for (const stats::SloAccumulator &s : slo_)
        n += s.shed();
    return n;
}

core::DhlController &
ServingSim::controller(std::size_t track)
{
    fatal_if(track >= tracks_.size(), "track index out of range");
    return *tracks_[track].controller;
}

faults::FaultState &
ServingSim::faultState(std::size_t track)
{
    fatal_if(track >= tracks_.size(), "track index out of range");
    return *tracks_[track].state;
}

void
ServingSim::dumpStats(std::ostream &os)
{
    serve_stats_.dump(os);
    sim_.statsGroup().dump(os);
    for (const TrackSystem &ts : tracks_) {
        ts.controller->statsGroup().dump(os);
        ts.controller->track().statsGroup().dump(os);
        if (ts.injector)
            ts.injector->statsGroup().dump(os);
    }
    if (maintenance_)
        maintenance_->statsGroup().dump(os);
    if (plants_)
        plants_->statsGroup().dump(os);
    if (te_) {
        te_->statsGroup().dump(os);
        optical_->statsGroup().dump(os);
    }
}

} // namespace serve
} // namespace dhl
