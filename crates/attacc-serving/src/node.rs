//! The per-node serving engine: the one iteration-level scheduling round.
//!
//! A [`NodeEngine`] holds one node's admission queue, active batch, KV
//! reservations and metrics over a [`StageExecutor`] (an `attacc-sim`
//! platform in production, a toy in tests). Its one primitive,
//! [`NodeEngine::run_round`], takes the virtual time at which the node
//! wakes, runs one admission + Sum + Gen round (ORCA-style, §3) and
//! reports when it finishes. Every serving entry point drives it:
//! [`crate::simulate`] delivers a closed batch at t = 0,
//! [`crate::simulate_open_loop`] delivers arrivals as their time comes,
//! and `attacc-cluster`'s event loop runs one engine per node.
//!
//! For fault runs the engine additionally supports failure semantics:
//! [`NodeEngine::crash`] evicts all queued and active work (KV state is
//! lost; the displaced requests return to the front door), and
//! [`NodeEngine::deliver_warm`] admits a request whose KV image was
//! shipped in so it skips its Sum stage. Both are inert when unused:
//! crashes never occur in a fault-free run, and only crash recovery and
//! prefill hand-offs deliver warm.

use crate::scheduler::{SchedulerConfig, StageExecutor};
use attacc_model::{Request, RequestState, SequenceStatus};
use std::collections::VecDeque;

/// What part of a request's lifecycle this node serves.
///
/// A [`NodeRole::Monolithic`] node runs the full Sum + Gen lifecycle
/// locally — the role of every single-node entry point and of
/// `simulate_cluster`. A [`NodeRole::Prefill`] node (disaggregated fleets
/// only) runs the Sum stage and then *hands the request off* instead of
/// decoding: after the prefill pass of each round every active request
/// is drained into the [`NodeEngine::drain_prefilled_into`] log
/// (single-token requests, which finish at Sum, retire locally) so the
/// fleet layer can ship its KV image to a decode node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Full Sum + Gen lifecycle on this node.
    Monolithic,
    /// Sum only; completed prefills are handed off for remote decode.
    Prefill,
}

/// What a [`NodeEngine::run_round`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Virtual time the round finished (equals the wake time when the
    /// round did nothing).
    pub end_s: f64,
    /// Whether the round admitted or generated anything.
    pub worked: bool,
    /// Whether the node abandoned its queue this round (head request can
    /// never fit the KV capacity — the livelock guard).
    pub abandoned: bool,
    /// Output tokens produced this round (Sum first-tokens + Gen tokens) —
    /// the serving loop's EWMA health signal normalizes round latency by
    /// this.
    pub tokens: u64,
}

/// One request displaced by a [`NodeEngine::crash`]: its KV state is gone
/// and it must be re-dispatched from the front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplacedRequest {
    /// Original front-door arrival time (for TTFT accounting after
    /// re-dispatch).
    pub arrival_s: f64,
    /// The request as this node saw it (a re-dispatched request may
    /// already carry folded-in context in `l_in`).
    pub request: Request,
    /// Output tokens this node had already generated for the request
    /// (0 for requests still queued).
    pub progress: u64,
    /// Whether the request was queued for warm (migrated-KV) admission.
    pub warm: bool,
}

/// Everything a crash evicted from a node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashedWork {
    /// Displaced requests in deterministic order: admission queue front to
    /// back, then active requests in admission order.
    pub displaced: Vec<DisplacedRequest>,
    /// Output tokens whose KV state the crash destroyed (sum of active
    /// requests' progress).
    pub lost_tokens: u64,
}

/// What a node has measured so far, read through [`NodeEngine::metrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMetrics {
    /// Energy spent (J).
    pub energy_j: f64,
    /// Output tokens produced (Sum first tokens and Gen tokens).
    pub tokens: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests abandoned because the queue head could never fit.
    pub abandoned: u64,
    /// Seconds spent executing rounds that did work.
    pub busy_s: f64,
    /// Front-door arrival to first token, in first-token order.
    pub ttft: Vec<f64>,
    /// Output-token count of each request whose TTFT was recorded, in the
    /// same order as `ttft` (for SLO goodput accounting).
    pub ttft_tokens: Vec<u64>,
    /// Gen-iteration latencies, one per Gen iteration.
    pub tbt: Vec<f64>,
    /// Front-door arrival to admission, in admission order.
    pub queue_wait: Vec<f64>,
}

/// Length → position in a `(count, length)` group list, so each request
/// joins its group in O(1) and groups appear in first-occurrence order.
/// Open addressing over a power-of-two table kept at most half full;
/// every slot carries the stamp of the list it indexes, so starting a
/// new list clears nothing. Keys are lengths minus `offset`: advancing
/// every length of the list by one leaves every key valid.
#[derive(Debug, Default)]
struct GroupIndex {
    /// `(stamp, length - offset, position in the group list)`.
    slots: Vec<(u32, u64, u32)>,
    stamp: u32,
    offset: u64,
}

impl GroupIndex {
    /// Starts a new, empty group list.
    fn clear(&mut self) {
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.offset = 0;
    }

    /// Adds one to every length in `groups`.
    fn advance(&mut self, groups: &mut [(u64, u64)]) {
        for (_, l) in groups {
            *l += 1;
        }
        self.offset += 1;
    }

    /// Counts one request of length `l` into `groups`: its group's count
    /// goes up by one, or a `(1, l)` group is appended on first sight.
    fn add(&mut self, groups: &mut Vec<(u64, u64)>, l: u64) {
        if 2 * groups.len() >= self.slots.len() {
            self.grow(groups);
        }
        let i = self.find(l.wrapping_sub(self.offset));
        let (stamp, key, pos) = &mut self.slots[i];
        if *stamp == self.stamp {
            groups[*pos as usize].0 += 1;
        } else {
            (*stamp, *key, *pos) = (self.stamp, l.wrapping_sub(self.offset), groups.len() as u32);
            groups.push((1, l));
        }
    }

    /// The slot holding `key` in the current list, or the free slot
    /// where it belongs.
    fn find(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask;
        while self.slots[i].0 == self.stamp && self.slots[i].1 != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Re-indexes `groups` in a table twice as large.
    #[cold]
    fn grow(&mut self, groups: &[(u64, u64)]) {
        let size = (4 * groups.len()).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(size, (0, 0, 0));
        self.stamp = 1;
        for (pos, &(_, l)) in groups.iter().enumerate() {
            let key = l.wrapping_sub(self.offset);
            let i = self.find(key);
            self.slots[i] = (self.stamp, key, pos as u32);
        }
    }
}

/// One serving node: executor, scheduler state, and local metrics.
pub struct NodeEngine<'a> {
    executor: &'a dyn StageExecutor,
    cfg: SchedulerConfig,
    role: NodeRole,
    /// `(front-door arrival time, request, warm)` in delivery order; warm
    /// requests carry a migrated KV image and skip their Sum stage.
    queued: VecDeque<(f64, Request, bool)>,
    /// `(front-door arrival time, state)` for admitted requests.
    active: Vec<(f64, RequestState)>,
    reserved_tokens: u64,
    /// `final_len` of everything queued or active — the committed-KV
    /// figure the router's `LeastKvBytes` policy balances on.
    pledged_tokens: u64,
    metrics: NodeMetrics,
    /// Time-weighted integral of reserved tokens (token·seconds).
    kv_area: f64,
    last_kv_change_s: f64,
    /// Reservation level since `last_kv_change_s`, the height that
    /// `kv_area` integrates up to the next change.
    kv_last_value: u64,
    /// Running maximum reservation over every change.
    kv_peak: u64,
    /// `(prefill-done time, front-door arrival time, remaining request)`
    /// hand-off log for [`NodeRole::Prefill`] nodes, drained by the fleet
    /// layer after every round via
    /// [`NodeEngine::drain_prefilled_into`]. The remaining request folds
    /// generated tokens into its context: `l_in' = l_in + generated`,
    /// `l_out' = l_out - generated`.
    prefilled: Vec<(f64, f64, Request)>,
    /// `(request id, time)` of every first token emitted this round, for
    /// the serving loop's per-request TTFT tracking (cleared after every
    /// round via [`NodeEngine::clear_round_logs`]).
    first_tokens: Vec<(u64, f64)>,
    /// `(request id, time)` of every retirement this round, for the
    /// serving loop's completion tracking (cleared likewise).
    retired: Vec<(u64, f64)>,
    /// Per-round `(count, l_in)` admission-group scratch, reused so a
    /// round allocates nothing in steady state.
    scratch_admitted: Vec<(u64, u64)>,
    /// Length index of the admission groups.
    sum_index: GroupIndex,
    /// The next Gen iteration's `(count, context + 1)` groups over the
    /// active set, in first-occurrence order (the float accumulation
    /// order downstream). Kept current as the set changes instead of
    /// rebuilt every round: admissions append, a bare sweep advances
    /// every length by one, a retiring sweep re-lists the survivors.
    groups: Vec<(u64, u64)>,
    gen_index: GroupIndex,
    /// A lower bound on `l_out - generated` over the active set as it
    /// stands when this round's Gen iteration starts: the last sweep's
    /// minimum, lowered by every admission since (a cold admission will
    /// have produced its Sum token by then). Every Gen iteration advances
    /// each active by one token, so a bare sweep decrements it by one.
    /// While it exceeds one, no sequence can finish this round, so the
    /// completion sweep skips every status and retirement check.
    min_remaining: u64,
}

impl<'a> NodeEngine<'a> {
    /// A fresh node over `executor` under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.max_batch` is zero.
    #[must_use]
    pub fn new(executor: &'a dyn StageExecutor, cfg: SchedulerConfig) -> NodeEngine<'a> {
        NodeEngine::with_role(executor, cfg, NodeRole::Monolithic)
    }

    /// A fresh node over `executor` under `cfg` serving `role`.
    ///
    /// # Panics
    /// Panics if `cfg.max_batch` is zero.
    #[must_use]
    pub fn with_role(
        executor: &'a dyn StageExecutor,
        cfg: SchedulerConfig,
        role: NodeRole,
    ) -> NodeEngine<'a> {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        NodeEngine {
            executor,
            cfg,
            role,
            queued: VecDeque::new(),
            active: Vec::new(),
            reserved_tokens: 0,
            pledged_tokens: 0,
            metrics: NodeMetrics {
                energy_j: 0.0,
                tokens: 0,
                completed: 0,
                abandoned: 0,
                busy_s: 0.0,
                ttft: Vec::new(),
                ttft_tokens: Vec::new(),
                tbt: Vec::new(),
                queue_wait: Vec::new(),
            },
            kv_area: 0.0,
            last_kv_change_s: 0.0,
            kv_last_value: 0,
            kv_peak: 0,
            prefilled: Vec::new(),
            first_tokens: Vec::new(),
            retired: Vec::new(),
            scratch_admitted: Vec::new(),
            sum_index: GroupIndex::default(),
            groups: Vec::new(),
            gen_index: GroupIndex::default(),
            min_remaining: 0,
        }
    }

    /// Queues a delivered request (front-door arrival time `arrival_s`).
    pub fn deliver(&mut self, arrival_s: f64, request: Request) {
        self.pledged_tokens += request.final_len();
        self.queued.push_back((arrival_s, request, false));
    }

    /// Queues a request whose KV image was re-migrated to this node: on
    /// admission it skips the Sum stage and resumes generating directly
    /// (`request.l_in` is the migrated context, `request.l_out` the
    /// remaining output tokens).
    pub fn deliver_warm(&mut self, arrival_s: f64, request: Request) {
        self.pledged_tokens += request.final_len();
        self.queued.push_back((arrival_s, request, true));
    }

    /// The lifecycle role this node serves.
    #[must_use]
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// Appends the `(prefill-done time, arrival time, remaining request)`
    /// hand-offs accumulated since the last drain to `out` and clears the
    /// log (both buffers keep their capacity — no steady-state
    /// allocation). Only [`NodeRole::Prefill`] nodes ever produce
    /// entries.
    pub fn drain_prefilled_into(&mut self, out: &mut Vec<(f64, f64, Request)>) {
        out.append(&mut self.prefilled);
    }

    /// Pre-sizes the per-request metric vectors for roughly `requests`
    /// samples, so 10^5-request traces do not grow them through repeated
    /// doubling. Purely an allocation hint: behavior and contents are
    /// unchanged.
    pub fn reserve_metrics(&mut self, requests: usize) {
        self.metrics.ttft.reserve(requests);
        self.metrics.ttft_tokens.reserve(requests);
        self.metrics.queue_wait.reserve(requests);
        self.metrics.tbt.reserve(requests);
    }

    /// Requests waiting for admission.
    #[must_use]
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// Requests currently being served.
    #[must_use]
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Whether the node has nothing queued and nothing in flight.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queued.is_empty() && self.active.is_empty()
    }

    /// KV tokens currently reserved by admitted requests.
    #[must_use]
    pub fn reserved_tokens(&self) -> u64 {
        self.reserved_tokens
    }

    /// `final_len` of everything queued or active on this node.
    #[must_use]
    pub fn pledged_tokens(&self) -> u64 {
        self.pledged_tokens
    }

    /// Everything this node has measured so far.
    #[must_use]
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The `(request id, time)` first-token log accumulated since the
    /// last [`NodeEngine::clear_round_logs`].
    #[must_use]
    pub fn first_tokens(&self) -> &[(u64, f64)] {
        &self.first_tokens
    }

    /// The `(request id, time)` retirement log accumulated since the last
    /// [`NodeEngine::clear_round_logs`].
    #[must_use]
    pub fn retired_log(&self) -> &[(u64, f64)] {
        &self.retired
    }

    /// Clears both per-round logs without releasing their buffers. The
    /// serving loop calls it after every round, so the logs stay one
    /// round long instead of growing by an entry per request.
    pub fn clear_round_logs(&mut self) {
        self.first_tokens.clear();
        self.retired.clear();
    }

    /// Crashes the node at `now`: every queued and active request loses
    /// its KV state and is returned for front-door re-dispatch, and the
    /// KV reservation drops to zero. Capacity is restored by simply
    /// resuming `run_round` calls after recovery — state is not.
    pub fn crash(&mut self, now: f64) -> CrashedWork {
        self.groups.clear();
        self.gen_index.clear();
        let mut work = CrashedWork::default();
        for (arrival_s, request, warm) in self.queued.drain(..) {
            work.displaced.push(DisplacedRequest { arrival_s, request, progress: 0, warm });
        }
        for (arrival_s, state) in self.active.drain(..) {
            work.lost_tokens += state.generated;
            work.displaced.push(DisplacedRequest {
                arrival_s,
                request: state.request,
                progress: state.generated,
                warm: false,
            });
        }
        if self.reserved_tokens > 0 || self.pledged_tokens > 0 {
            self.reserved_tokens = 0;
            self.pledged_tokens = 0;
            self.record_kv(now);
        }
        work
    }

    fn record_kv(&mut self, now: f64) {
        self.kv_area += self.kv_last_value as f64 * (now - self.last_kv_change_s);
        self.last_kv_change_s = now;
        self.kv_last_value = self.reserved_tokens;
        self.kv_peak = self.kv_peak.max(self.reserved_tokens);
    }

    /// Closes the KV-occupancy integral at `end_s` and returns
    /// `(peak tokens, time-weighted mean tokens)`, both exact over every
    /// reservation change.
    pub fn finish_kv(&mut self, end_s: f64) -> (u64, f64) {
        self.kv_area += self.kv_last_value as f64 * (end_s - self.last_kv_change_s);
        self.last_kv_change_s = end_s;
        let mean = if end_s > 0.0 { self.kv_area / end_s } else { 0.0 };
        (self.kv_peak, mean)
    }

    /// Runs one scheduling round starting at `now`: admit as many queued
    /// requests as batch and KV capacity allow, prefill the admissions,
    /// run one Gen iteration, retire finished requests.
    pub fn run_round(&mut self, now: f64) -> RoundOutcome {
        let start = now;
        let mut now = now;
        let tokens_before = self.metrics.tokens;

        let fits = |reserved: u64, cfg: &SchedulerConfig, req: &Request| -> bool {
            if cfg.kv_bytes_per_token == 0 {
                return true;
            }
            let need = (reserved + req.final_len()) as u128 * cfg.kv_bytes_per_token as u128;
            need <= cfg.kv_capacity_bytes as u128
        };

        // Admit (FCFS in delivery order, head-blocking on capacity).
        // Warm requests resume generating without a Sum stage: their KV
        // image arrived with them.
        let mut admitted = std::mem::take(&mut self.scratch_admitted);
        admitted.clear();
        let mut admitted_warm = false;
        let mut kv_changed = false;
        self.sum_index.clear();
        while (self.active.len() as u64) < self.cfg.max_batch {
            let Some(&(arrival, req, warm)) = self.queued.front() else { break };
            if !fits(self.reserved_tokens, &self.cfg, &req) {
                break;
            }
            self.queued.pop_front();
            self.reserved_tokens += req.final_len();
            kv_changed = true;
            self.metrics.queue_wait.push(now - arrival);
            if warm {
                let state = RequestState {
                    request: req,
                    generated: 0,
                    status: SequenceStatus::Generating,
                };
                self.active.push((arrival, state));
                admitted_warm = true;
                self.gen_index.add(&mut self.groups, req.l_in + 1);
                self.min_remaining = self.min_remaining.min(req.l_out);
            } else {
                self.active.push((arrival, RequestState::admitted(req)));
                self.sum_index.add(&mut admitted, req.l_in);
                // After its Sum token it decodes at `l_in + 1`, unless
                // that token was its last.
                if req.l_out > 1 {
                    self.gen_index.add(&mut self.groups, req.l_in + 2);
                }
                self.min_remaining = self.min_remaining.min(req.l_out.saturating_sub(1));
            }
        }
        if kv_changed {
            self.record_kv(now);
        }

        // Prefill the admissions. A `NeedsSum` active can only be one of
        // this round's cold admissions (every prior round completed its
        // Sum stages, and a crash evicts actives wholesale), so the whole
        // pass is skipped when nothing was admitted cold.
        if !admitted.is_empty() {
            for &(c, l_in) in &admitted {
                let cost = self.executor.sum_stage(c, l_in);
                now += cost.latency_s;
                self.metrics.energy_j += cost.energy_j;
            }
            for (arrival, s) in
                self.active.iter_mut().filter(|(_, s)| s.status == SequenceStatus::NeedsSum)
            {
                self.metrics.tokens += 1;
                self.metrics.ttft.push(now - *arrival);
                self.metrics.ttft_tokens.push(s.request.l_out);
                self.first_tokens.push((s.request.id, now));
                let _ = s.complete_stage();
            }
        }

        // A prefill node never decodes: drain every active request right
        // after the Sum pass. Single-token requests finished at Sum and
        // retire here; everything else is logged for hand-off with its
        // generated tokens folded into the shipped context, so the decode
        // node's first Gen group length equals what a monolithic node
        // would have used (`l_in + generated + 1`). Releasing the
        // reservations here models the prefill node recycling its KV
        // buffers once the image ships.
        if self.role == NodeRole::Prefill && !self.active.is_empty() {
            for (arrival, s) in self.active.drain(..) {
                self.reserved_tokens -= s.request.final_len();
                self.pledged_tokens -= s.request.final_len();
                if s.status == SequenceStatus::Finished {
                    self.metrics.completed += 1;
                    self.retired.push((s.request.id, now));
                } else {
                    let r = s.request;
                    self.prefilled.push((
                        now,
                        arrival,
                        Request::new(r.id, r.l_in + s.generated, r.l_out - s.generated),
                    ));
                }
            }
            self.record_kv(now);
            self.groups.clear();
            self.gen_index.clear();
            self.min_remaining = 0;
        }

        // One Gen iteration over every generating sequence.
        let gen_ran = !self.groups.is_empty();
        if gen_ran {
            let cost = self.executor.gen_stage(&self.groups);
            now += cost.latency_s;
            self.metrics.energy_j += cost.energy_j;
            self.metrics.tbt.push(cost.latency_s);
        }

        if gen_ran && self.min_remaining > 1 {
            // Nobody can finish this round — every active sequence is
            // generating and still has at least two tokens to produce —
            // so the completion sweep is a bare context advance: no
            // status checks, no retirement tests, no reservation
            // changes. `generated` stays exact (a crash or admission
            // mid-stream sees the true per-sequence progress).
            for (_, s) in &mut self.active {
                s.generated += 1;
            }
            self.metrics.tokens += self.active.len() as u64;
            self.min_remaining -= 1;
            // Everyone advanced by one token: distinct lengths stay
            // distinct and the order holds.
            self.gen_index.advance(&mut self.groups);
        } else {
            // Complete the iteration and retire finished requests in one
            // sweep (retirement order is the active order either way),
            // re-listing the survivors' groups and recomputing the
            // minimum remaining tokens over them for the fast sweep
            // above. Every survivor is generating.
            let mut retired_any = false;
            let mut min_rem = u64::MAX;
            let (tokens, reserved, completed, pledged, retired) = (
                &mut self.metrics.tokens,
                &mut self.reserved_tokens,
                &mut self.metrics.completed,
                &mut self.pledged_tokens,
                &mut self.retired,
            );
            let (groups, index) = (&mut self.groups, &mut self.gen_index);
            groups.clear();
            index.clear();
            self.active.retain_mut(|(_, s)| {
                if gen_ran && s.status == SequenceStatus::Generating {
                    *tokens += 1;
                    let _ = s.complete_stage();
                }
                if s.status == SequenceStatus::Finished {
                    *reserved -= s.request.final_len();
                    *pledged -= s.request.final_len();
                    *completed += 1;
                    retired.push((s.request.id, now));
                    retired_any = true;
                    false
                } else {
                    min_rem = min_rem.min(s.request.l_out - s.generated);
                    index.add(groups, s.context_len() + 1);
                    true
                }
            });
            if retired_any {
                self.record_kv(now);
            }
            self.min_remaining = min_rem;
        }

        let worked = gen_ran || !admitted.is_empty() || admitted_warm;
        let mut abandoned = false;
        if !worked && self.active.is_empty() && !self.queued.is_empty() {
            // The queue head can never fit: abandon the queue to avoid
            // livelock.
            self.metrics.abandoned += self.queued.len() as u64;
            self.pledged_tokens -= self.queued.iter().map(|(_, r, _)| r.final_len()).sum::<u64>();
            self.queued.clear();
            abandoned = true;
        }
        if worked {
            self.metrics.busy_s += now - start;
        }
        self.scratch_admitted = admitted;
        RoundOutcome { end_s: now, worked, abandoned, tokens: self.metrics.tokens - tokens_before }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StageCost;

    struct Toy;
    impl StageExecutor for Toy {
        fn sum_stage(&self, b: u64, _l: u64) -> StageCost {
            StageCost { latency_s: 2e-3 * b as f64, energy_j: 1.0 }
        }
        fn gen_stage(&self, groups: &[(u64, u64)]) -> StageCost {
            let n: u64 = groups.iter().map(|g| g.0).sum();
            StageCost { latency_s: 1e-3 + 1e-5 * n as f64, energy_j: 0.01 * n as f64 }
        }
    }

    #[test]
    fn round_drains_one_request() {
        let mut node = NodeEngine::new(&Toy, SchedulerConfig::unlimited(4));
        node.deliver(0.0, Request::new(0, 16, 3));
        let mut t = 0.0;
        let mut rounds = 0;
        while !node.is_drained() {
            let out = node.run_round(t);
            assert!(out.worked);
            assert!(out.tokens > 0);
            t = out.end_s;
            rounds += 1;
        }
        // Round 1: Sum emits token 1 and the same round's Gen emits
        // token 2; round 2's Gen emits token 3 and retires.
        assert_eq!(rounds, 2);
        assert_eq!(node.metrics().tokens, 3);
        assert_eq!(node.metrics().completed, 1);
        assert_eq!(node.metrics().ttft.len(), 1);
        assert_eq!(node.metrics().tbt.len(), 2);
        assert!(node.metrics().busy_s > 0.0);
        assert_eq!(node.reserved_tokens(), 0);
        assert_eq!(node.first_tokens().len(), 1);
        assert_eq!(node.retired_log(), [(0, t)]);
        node.clear_round_logs();
        assert!(node.first_tokens().is_empty() && node.retired_log().is_empty());
    }

    #[test]
    fn impossible_head_abandons_queue() {
        let cfg = SchedulerConfig::with_capacity(4, 10, 100); // nothing fits
        let mut node = NodeEngine::new(&Toy, cfg);
        node.deliver(0.0, Request::new(0, 4, 4));
        node.deliver(0.0, Request::new(1, 4, 4));
        let out = node.run_round(0.0);
        assert!(!out.worked && out.abandoned);
        assert_eq!(node.metrics().abandoned, 2);
        assert!(node.is_drained());
    }

    #[test]
    fn kv_peak_and_mean_track_reservations() {
        let cfg = SchedulerConfig::with_capacity(8, u64::MAX, 1);
        let mut node = NodeEngine::new(&Toy, cfg);
        node.deliver(0.0, Request::new(0, 8, 2));
        let mut t = 0.0;
        while !node.is_drained() {
            t = node.run_round(t).end_s;
        }
        let (peak, mean) = node.finish_kv(t);
        assert_eq!(peak, 10, "final_len = l_in + l_out reserved up front");
        // Reserved at t=0, released at the very end: mean equals peak.
        assert!((mean - 10.0).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn crash_displaces_queue_and_active_and_zeroes_kv() {
        let mut node = NodeEngine::new(&Toy, SchedulerConfig::unlimited(1));
        node.deliver(0.0, Request::new(0, 16, 8));
        node.deliver(0.1, Request::new(1, 16, 8));
        // One round: request 0 admitted and 2 tokens in, request 1 queued.
        let out = node.run_round(0.2);
        assert!(out.worked);
        let wreck = node.crash(out.end_s);
        assert_eq!(wreck.displaced.len(), 2);
        // Queue front first, then active.
        assert_eq!(wreck.displaced[0].request.id, 1);
        assert_eq!(wreck.displaced[0].progress, 0);
        assert_eq!(wreck.displaced[1].request.id, 0);
        assert_eq!(wreck.displaced[1].progress, 2);
        assert_eq!(wreck.lost_tokens, 2);
        assert!(node.is_drained());
        assert_eq!(node.reserved_tokens(), 0);
        assert_eq!(node.pledged_tokens(), 0);
        // Metrics survive the crash: the 2 produced tokens happened.
        assert_eq!(node.metrics().tokens, 2);
    }

    #[test]
    fn warm_delivery_skips_sum_stage() {
        let mut node = NodeEngine::new(&Toy, SchedulerConfig::unlimited(4));
        // 20 tokens of context already computed elsewhere, 3 to go.
        node.deliver_warm(0.0, Request::new(7, 20, 3));
        let out = node.run_round(0.0);
        assert!(out.worked);
        // No Sum ran: no TTFT sample, no first-token record, and the
        // round produced exactly one Gen token.
        assert!(node.metrics().ttft.is_empty());
        assert!(node.first_tokens().is_empty());
        assert_eq!(out.tokens, 1);
        let mut t = out.end_s;
        while !node.is_drained() {
            t = node.run_round(t).end_s;
        }
        assert_eq!(node.metrics().tokens, 3);
        assert_eq!(node.metrics().completed, 1);
        assert_eq!(node.retired_log(), [(7, t)]);
    }

    #[test]
    fn prefill_role_hands_off_after_sum() {
        let mut node = NodeEngine::with_role(&Toy, SchedulerConfig::unlimited(4), NodeRole::Prefill);
        node.deliver(0.0, Request::new(0, 16, 3));
        node.deliver(0.0, Request::new(1, 16, 1)); // finishes at Sum
        let out = node.run_round(0.0);
        assert!(out.worked);
        // Both requests got their Sum first token; nothing decodes here.
        assert_eq!(node.metrics().tokens, 2);
        assert_eq!(node.metrics().ttft.len(), 2);
        assert!(node.is_drained(), "prefill node drains every round");
        assert_eq!(node.reserved_tokens(), 0);
        assert_eq!(node.pledged_tokens(), 0);
        // The single-token request retired locally; the other was handed
        // off with its generated token folded into the context.
        assert_eq!(node.metrics().completed, 1);
        let mut handoffs = Vec::new();
        node.drain_prefilled_into(&mut handoffs);
        assert_eq!(handoffs.len(), 1);
        let (ready_s, arrival_s, rest) = handoffs[0];
        assert_eq!(ready_s, out.end_s);
        assert_eq!(arrival_s, 0.0);
        assert_eq!((rest.id, rest.l_in, rest.l_out), (0, 17, 2));
        node.drain_prefilled_into(&mut handoffs);
        assert_eq!(handoffs.len(), 1, "drained log stays drained");
    }
}
