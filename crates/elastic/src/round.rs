//! The per-round decision stage both drivers share.
//!
//! Once per closed statistics round, the paper's controller (Fig. 5,
//! steps ①–②) decides what to change. [`RoundDecider`] is that decision
//! with no threads, channels or clocks: three ordered steps — **scale**,
//! **split**, **rebalance** — each consulting its policy, applying every
//! guard, mutating the `Partitioner`, and returning an action at the
//! routing level. The driver executes each action's physical half before
//! the next step (the engine cuts each op's routing view right after its
//! own step's mutation), so sim and engine decision traces agree by
//! construction. One divergence stays with the drivers: the simulator
//! retires a task instantly, while the engine drains it and reports
//! [`ScaleLimits::scale_in_flight`] meanwhile, so a `ScaleOut` decided
//! while a physical retire drains is skipped on the engine only.

use streambal_core::{divert, IntervalStats, Key, Partitioner, RebalanceOutcome, TaskId};

use crate::{
    choose_replicas, ElasticityPolicy, IntervalObservation, ScaleDecision, ScaleEvent,
    SplitDecision, SplitEvent, SplitObservation, SplitPolicy,
};

/// One closed statistics round, as the drivers hand it to the steps.
#[derive(Debug, Clone)]
pub struct RoundDecider<'a> {
    /// The interval whose statistics closed the round.
    pub interval: u64,
    /// Per-slot load `Lᵢ(d)`, as in [`IntervalObservation::loads`].
    pub loads: &'a [u64],
    /// Per-slot input queue depth at interval close, in tuples.
    pub queue_depths: &'a [u64],
    /// Mean end-to-end latency of the round, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile end-to-end latency of the round, µs.
    pub p99_latency_us: f64,
    /// Dead worker slots, any order. A [`ScaleAction::Revive`] removes
    /// its slot, so later steps see it live.
    pub dead: Vec<usize>,
}

/// The driver's physical bounds on widening.
#[derive(Debug, Clone, Copy)]
pub struct ScaleLimits {
    /// No widening past this many tasks.
    pub max_tasks: usize,
    /// A retire is still draining; widening waits, since the spawn slot
    /// must be the contiguous physical tail.
    pub scale_in_flight: bool,
    /// Widen with `Partitioner::scale_out_plan` (pre-place state) rather
    /// than `Partitioner::scale_out` (pin churned keys).
    pub preplace: bool,
}

impl ScaleLimits {
    /// The simulator's bounds: up to `max_tasks`, nothing in flight,
    /// pre-placing.
    pub fn new(max_tasks: usize) -> Self {
        ScaleLimits {
            max_tasks,
            scale_in_flight: false,
            preplace: true,
        }
    }
}

/// What the scale step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleAction {
    /// Nothing: the policy held, or a guard skipped its decision.
    Hold,
    /// Respawn dead `slot` (the lowest) instead of widening; routing is
    /// untouched.
    Revive {
        /// The slot to respawn.
        slot: usize,
    },
    /// The partitioner grew to `event.to` tasks; the new one is
    /// `event.from`.
    Widen {
        /// The executed change.
        event: ScaleEvent,
        /// Pre-placement moves `(key, holder)` onto the new task.
        moves: Vec<(Key, TaskId)>,
    },
    /// A scale-in refused while a slot is dead: retiring a live worker on
    /// top of an unplanned loss would shed real capacity.
    HeldDegraded,
    /// The partitioner shrank to `event.to` tasks; task `event.to` (the
    /// planned tail) must drain and retire.
    Shrink {
        /// The executed change.
        event: ScaleEvent,
    },
}

/// What the split step did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitAction {
    /// Nothing: no policy, the policy held, or the routing layer could not
    /// honour its decision.
    Hold,
    /// `event.key` is now salted across `event.to` replicas; no state
    /// moves.
    Split {
        /// The executed change.
        event: SplitEvent,
    },
    /// `event.key` routes whole to `primary` again; each of `movers` holds
    /// a partial that must merge into it.
    Unsplit {
        /// The executed change.
        event: SplitEvent,
        /// The key's home from now on.
        primary: TaskId,
        /// The live non-primary replicas.
        movers: Vec<TaskId>,
    },
}

impl SplitAction {
    /// The executed change, if any.
    pub fn event(&self) -> Option<SplitEvent> {
        match self {
            SplitAction::Hold => None,
            SplitAction::Split { event } | SplitAction::Unsplit { event, .. } => Some(*event),
        }
    }
}

/// The planner's outcome, its moves checked against the dead slots.
#[derive(Debug, Clone)]
pub struct Rebalance {
    /// The partitioner's outcome, as returned.
    pub outcome: RebalanceOutcome,
    /// State transfers `(holder, key, destination)`: the moves whose
    /// holder is live (a dead holder's move is routing-only, its state
    /// already lost), destinations diverted past dead slots.
    pub transfers: Vec<(TaskId, Key, TaskId)>,
    /// A move touched a dead slot, so the partitioner's table differs
    /// from the plan's raw moves and a delta view would desync holders.
    pub dead_involved: bool,
}

impl Rebalance {
    /// Whether this counts as a rebalance: the plan moves a key. An empty
    /// plan is a planner call, not a rebalance, in both drivers.
    pub fn fired(&self) -> bool {
        !self.outcome.plan.is_empty()
    }
}

impl RoundDecider<'_> {
    fn is_dead(&self, slot: usize) -> bool {
        self.dead.contains(&slot)
    }

    /// Step 1: asks `policy` for a parallelism change and applies it.
    ///
    /// The policy sees the *planned* parallelism, `n_tasks()`, which every
    /// decision changes at once (the physical count lags while retires
    /// drain). A `ScaleOut` revives the lowest dead slot if any, else
    /// widens unless a scale-in is in flight or the count is at
    /// `max_tasks`. A `ScaleIn` is held while a slot is dead, clamped at
    /// one task, and retires the planned tail. Both pin or pre-place the
    /// round's keys (`stats`).
    pub fn scale(
        &mut self,
        policy: &mut dyn ElasticityPolicy,
        partitioner: &mut dyn Partitioner,
        stats: &IntervalStats,
        limits: ScaleLimits,
    ) -> ScaleAction {
        let planned = partitioner.n_tasks();
        let obs = IntervalObservation {
            interval: self.interval,
            n_tasks: planned,
            loads: self.loads,
            queue_depths: self.queue_depths,
            mean_latency_us: self.mean_latency_us,
            p99_latency_us: self.p99_latency_us,
            n_dead: self.dead.len(),
        };
        let live = || stats.iter().map(|(k, _)| k).collect::<Vec<Key>>();
        let event = |to| ScaleEvent {
            interval: self.interval,
            from: planned,
            to,
        };
        match policy.decide(&obs) {
            ScaleDecision::Hold => ScaleAction::Hold,
            ScaleDecision::ScaleOut => {
                if let Some(slot) = self.dead.iter().copied().min() {
                    self.dead.retain(|&d| d != slot);
                    ScaleAction::Revive { slot }
                } else if limits.scale_in_flight || planned >= limits.max_tasks {
                    ScaleAction::Hold
                } else {
                    let moves = if limits.preplace {
                        partitioner.scale_out_plan(&live()).1
                    } else {
                        partitioner.scale_out(&live());
                        Vec::new()
                    };
                    ScaleAction::Widen {
                        event: event(planned + 1),
                        moves,
                    }
                }
            }
            ScaleDecision::ScaleIn if !self.dead.is_empty() => ScaleAction::HeldDegraded,
            ScaleDecision::ScaleIn if planned > 1 => {
                partitioner.scale_in(TaskId::from(planned - 1), &live());
                ScaleAction::Shrink {
                    event: event(planned - 1),
                }
            }
            ScaleDecision::ScaleIn => ScaleAction::Hold,
        }
    }

    /// Step 2: asks `policy`, if any, for a hot-key split or unsplit and
    /// applies it.
    ///
    /// The policy sees the round's per-key costs (a split key's entry is
    /// its replicas' merged total), the split set, and the parallelism the
    /// scale step left. A split needs two tasks, two replicas and a key
    /// not yet split; its slots are the key's current route (primary, so
    /// an unsplit needs no table change) and the least-loaded other tasks,
    /// dead ones last. An unsplit's movers skip dead replicas.
    pub fn split(
        &self,
        policy: Option<&mut (dyn SplitPolicy + '_)>,
        partitioner: &mut dyn Partitioner,
        stats: &IntervalStats,
    ) -> SplitAction {
        let Some(policy) = policy else {
            return SplitAction::Hold;
        };
        let planned = partitioner.n_tasks();
        let key_loads: Vec<(u64, u64)> = stats.iter().map(|(k, s)| (k.raw(), s.cost)).collect();
        let mut split_keys: Vec<u64> = partitioner.splits().iter().map(|(k, _)| k.raw()).collect();
        split_keys.sort_unstable();
        let obs = SplitObservation {
            interval: self.interval,
            n_tasks: planned,
            key_loads: &key_loads,
            split_keys: &split_keys,
        };
        let event = |key, from, to| SplitEvent {
            interval: self.interval,
            key,
            from,
            to,
        };
        match policy.decide(&obs) {
            SplitDecision::Split { key, replicas }
                if planned >= 2 && replicas >= 2 && !split_keys.contains(&key) =>
            {
                let primary = partitioner.route(Key(key));
                let task_loads: Vec<u64> = (0..planned)
                    .map(|i| {
                        if self.is_dead(i) {
                            u64::MAX
                        } else {
                            self.loads.get(i).copied().unwrap_or(0)
                        }
                    })
                    .collect();
                let slots: Vec<TaskId> = choose_replicas(primary.index(), &task_loads, replicas)
                    .into_iter()
                    .map(TaskId::from)
                    .collect();
                if slots.len() >= 2 && partitioner.split_key(Key(key), &slots) {
                    SplitAction::Split {
                        event: event(key, 1, slots.len()),
                    }
                } else {
                    SplitAction::Hold
                }
            }
            SplitDecision::Unsplit { key } => match partitioner.unsplit_key(Key(key)) {
                Some(replicas) => SplitAction::Unsplit {
                    event: event(key, replicas.len(), 1),
                    primary: replicas[0],
                    movers: replicas[1..]
                        .iter()
                        .copied()
                        .filter(|&r| r != replicas[0] && !self.is_dead(r.index()))
                        .collect(),
                },
                None => SplitAction::Hold,
            },
            SplitDecision::Split { .. } | SplitDecision::Hold => SplitAction::Hold,
        }
    }

    /// Step 3: closes the interval on the partitioner (`end_interval`).
    /// A planned move aimed at a dead slot (the statistics predate the
    /// death) is diverted to the slot its traffic already lands on, and
    /// the diversions are applied to the partitioner. `None` when the
    /// planner returned nothing.
    pub fn rebalance(
        &self,
        partitioner: &mut dyn Partitioner,
        stats: IntervalStats,
    ) -> Option<Rebalance> {
        let outcome = partitioner.end_interval(stats)?;
        let n_tasks = partitioner.n_tasks();
        let mut dead_involved = false;
        let mut fixups: Vec<(Key, TaskId)> = Vec::new();
        let mut transfers = Vec::with_capacity(outcome.plan.keys_moved());
        for mv in outcome.plan.moves() {
            let to = divert(mv.to, n_tasks, |x| self.is_dead(x));
            if to != mv.to {
                fixups.push((mv.key, to));
            }
            if self.is_dead(mv.from.index()) {
                dead_involved = true;
            } else {
                transfers.push((mv.from, mv.key, to));
            }
        }
        dead_involved |= !fixups.is_empty();
        if !fixups.is_empty() {
            partitioner.apply_moves(&fixups);
        }
        Some(Rebalance {
            outcome,
            transfers,
            dead_involved,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedSchedule, FixedSplitSchedule};
    use streambal_core::{
        AssignmentFn, LoadSummary, MigrationPlan, Move, RoutingTable, RoutingView,
    };

    /// A table-backed partitioner whose `end_interval` returns whatever
    /// outcome the test queued.
    struct Table {
        a: AssignmentFn,
        next: Option<RebalanceOutcome>,
    }

    impl Table {
        fn new(n: usize) -> Self {
            Table {
                a: AssignmentFn::hash_only(n),
                next: None,
            }
        }
    }

    impl Partitioner for Table {
        fn name(&self) -> String {
            "table".into()
        }
        fn n_tasks(&self) -> usize {
            self.a.n_tasks()
        }
        fn route(&mut self, key: Key) -> TaskId {
            self.a.route(key)
        }
        fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
            self.next.take()
        }
        fn add_task(&mut self) -> TaskId {
            self.a.add_task()
        }
        fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
            self.a.add_task_with_moves(live)
        }
        fn scale_in(&mut self, _victim: TaskId, live: &[Key]) {
            self.a.remove_task_pinned(live);
        }
        fn routing_view(&self) -> RoutingView {
            RoutingView::of_assignment(&self.a)
        }
        fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
            self.a.apply_delta(moves.iter().copied());
            true
        }
        fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
            self.a.set_split(key, replicas)
        }
        fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
            self.a.clear_split(key)
        }
        fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
            self.a.splits()
        }
    }

    fn round<'a>(loads: &'a [u64], dead: &[usize]) -> RoundDecider<'a> {
        RoundDecider {
            interval: 0,
            loads,
            queue_depths: &[],
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            dead: dead.to_vec(),
        }
    }

    fn stats(keys: u64) -> IntervalStats {
        let mut s = IntervalStats::new();
        for k in 0..keys {
            s.observe(Key(k), 1, 10, 8);
        }
        s
    }

    fn scale(
        decision: ScaleDecision,
        p: &mut Table,
        dead: &[usize],
        limits: ScaleLimits,
    ) -> (ScaleAction, Vec<usize>) {
        let loads = vec![10; p.n_tasks()];
        let mut r = round(&loads, dead);
        let mut policy = FixedSchedule::new([(0, decision)]);
        let action = r.scale(&mut policy, p, &stats(50), limits);
        (action, r.dead)
    }

    #[test]
    fn revive_picks_the_lowest_dead_slot_and_leaves_routing_alone() {
        let mut p = Table::new(4);
        let (action, dead) = scale(
            ScaleDecision::ScaleOut,
            &mut p,
            &[3, 1],
            ScaleLimits::new(8),
        );
        assert_eq!(action, ScaleAction::Revive { slot: 1 });
        assert_eq!(dead, vec![3], "later steps see the revived slot live");
        assert_eq!(p.n_tasks(), 4);
    }

    #[test]
    fn no_widening_while_a_scale_in_is_in_flight_or_at_the_cap() {
        let mut p = Table::new(4);
        let in_flight = ScaleLimits {
            scale_in_flight: true,
            ..ScaleLimits::new(8)
        };
        let (action, _) = scale(ScaleDecision::ScaleOut, &mut p, &[], in_flight);
        assert_eq!(action, ScaleAction::Hold);
        let (action, _) = scale(ScaleDecision::ScaleOut, &mut p, &[], ScaleLimits::new(4));
        assert_eq!(action, ScaleAction::Hold);
        assert_eq!(p.n_tasks(), 4, "a skipped widening leaves routing alone");

        let (action, _) = scale(ScaleDecision::ScaleOut, &mut p, &[], ScaleLimits::new(5));
        match action {
            ScaleAction::Widen { event, moves } => {
                assert_eq!((event.from, event.to), (4, 5));
                assert!(moves.iter().all(|&(_, holder)| holder.index() < 4));
            }
            a => panic!("expected a widening, got {a:?}"),
        }
        assert_eq!(p.n_tasks(), 5);
    }

    #[test]
    fn scale_in_is_held_while_degraded_and_clamped_at_one_task() {
        let mut p = Table::new(3);
        let (action, _) = scale(ScaleDecision::ScaleIn, &mut p, &[0], ScaleLimits::new(3));
        assert_eq!(action, ScaleAction::HeldDegraded);
        assert_eq!(p.n_tasks(), 3);

        let (action, _) = scale(ScaleDecision::ScaleIn, &mut p, &[], ScaleLimits::new(3));
        assert_eq!(
            action,
            ScaleAction::Shrink {
                event: ScaleEvent {
                    interval: 0,
                    from: 3,
                    to: 2
                },
            }
        );
        let mut p = Table::new(1);
        let (action, _) = scale(ScaleDecision::ScaleIn, &mut p, &[], ScaleLimits::new(3));
        assert_eq!(action, ScaleAction::Hold);
        assert_eq!(p.n_tasks(), 1);
    }

    fn split(decision: SplitDecision, p: &mut Table, loads: &[u64], dead: &[usize]) -> SplitAction {
        let mut policy = FixedSplitSchedule::new([(0, decision)]);
        round(loads, dead).split(Some(&mut policy), p, &stats(50))
    }

    #[test]
    fn split_is_rejected_below_two_tasks_or_replicas_or_when_already_split() {
        let one = SplitDecision::Split {
            key: 7,
            replicas: 2,
        };
        assert_eq!(
            split(one, &mut Table::new(1), &[10], &[]),
            SplitAction::Hold
        );
        let narrow = SplitDecision::Split {
            key: 7,
            replicas: 1,
        };
        assert_eq!(
            split(narrow, &mut Table::new(4), &[10; 4], &[]),
            SplitAction::Hold
        );
        let mut p = Table::new(4);
        assert!(matches!(
            split(one, &mut p, &[10; 4], &[]),
            SplitAction::Split { .. }
        ));
        let before = p.splits();
        assert_eq!(split(one, &mut p, &[10; 4], &[]), SplitAction::Hold);
        assert_eq!(
            p.splits(),
            before,
            "an already-split key keeps its replicas"
        );
        // No policy, no decision.
        assert_eq!(
            round(&[10; 4], &[]).split(None, &mut p, &stats(5)),
            SplitAction::Hold
        );
    }

    #[test]
    fn replica_slots_skip_dead_slots_while_a_live_one_is_free() {
        let mut p = Table::new(4);
        let primary = p.route(Key(7)).index();
        // Every other slot idle, the dead ones idlest of all: a
        // load-only choice would pick them.
        let mut loads = [50u64; 4];
        let dead: Vec<usize> = (0..4).filter(|&i| i != primary).take(2).collect();
        for &d in &dead {
            loads[d] = 0;
        }
        let action = split(
            SplitDecision::Split {
                key: 7,
                replicas: 2,
            },
            &mut p,
            &loads,
            &dead,
        );
        assert_eq!(action.event().map(|e| e.to), Some(2));
        let (_, replicas) = &p.splits()[0];
        assert_eq!(replicas[0].index(), primary);
        assert!(
            !dead.contains(&replicas[1].index()),
            "dead slot {replicas:?} chosen over a live one"
        );
    }

    #[test]
    fn unsplit_skips_dead_replicas() {
        let mut p = Table::new(4);
        let replicas = [TaskId(2), TaskId(0), TaskId(3)];
        assert!(p.split_key(Key(7), &replicas));
        let action = split(SplitDecision::Unsplit { key: 7 }, &mut p, &[10; 4], &[3]);
        assert_eq!(
            action,
            SplitAction::Unsplit {
                event: SplitEvent {
                    interval: 0,
                    key: 7,
                    from: 3,
                    to: 1
                },
                primary: TaskId(2),
                movers: vec![TaskId(0)],
            }
        );
        assert!(p.splits().is_empty());
        // Unsplitting a key that is not split does nothing.
        assert_eq!(
            split(SplitDecision::Unsplit { key: 7 }, &mut p, &[10; 4], &[]),
            SplitAction::Hold
        );
    }

    fn outcome(moves: &[(u64, u32, u32)]) -> RebalanceOutcome {
        RebalanceOutcome {
            table: RoutingTable::new(),
            plan: MigrationPlan::from_moves(moves.iter().map(|&(k, from, to)| Move {
                key: Key(k),
                from: TaskId(from),
                to: TaskId(to),
                state_bytes: 8,
            })),
            loads: LoadSummary::new(vec![0; 4]),
            achieved_theta: 0.0,
            migration_fraction: 0.0,
        }
    }

    #[test]
    fn rebalance_diverts_dead_targets_and_skips_dead_holders() {
        let mut p = Table::new(4);
        // Key 1 aims at dead slot 2 (diverted to 3); key 2's holder, slot
        // 2, died (routing-only); key 3 moves between live slots.
        p.next = Some(outcome(&[(1, 0, 2), (2, 2, 1), (3, 1, 0)]));
        let rb = round(&[10; 4], &[2])
            .rebalance(&mut p, IntervalStats::new())
            .expect("an outcome");
        assert!(rb.fired() && rb.dead_involved);
        assert_eq!(
            rb.transfers,
            vec![
                (TaskId(0), Key(1), TaskId(3)),
                (TaskId(1), Key(3), TaskId(0))
            ]
        );
        assert_eq!(p.route(Key(1)), TaskId(3), "the diversion is applied");

        // Nothing dead: every move is a transfer, as planned.
        p.next = Some(outcome(&[(5, 0, 1)]));
        let rb = round(&[10; 4], &[])
            .rebalance(&mut p, IntervalStats::new())
            .expect("an outcome");
        assert!(!rb.dead_involved);
        assert_eq!(rb.transfers, vec![(TaskId(0), Key(5), TaskId(1))]);
    }

    #[test]
    fn an_empty_plan_is_a_planner_call_not_a_rebalance() {
        let mut p = Table::new(4);
        assert!(round(&[], &[])
            .rebalance(&mut p, IntervalStats::new())
            .is_none());
        p.next = Some(outcome(&[]));
        let rb = round(&[], &[])
            .rebalance(&mut p, IntervalStats::new())
            .expect("an outcome");
        assert!(!rb.fired());
    }
}
