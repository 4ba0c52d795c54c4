//! Discrete-event simulation engine.
//!
//! The engine owns a [`World`] (the model state) and an event queue. Each
//! step pops the earliest event, advances the clock to its timestamp, and
//! hands it to the world, which may schedule further events through the
//! [`Scheduler`] it receives.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Scheduling context handed to event handlers.
///
/// Wraps the current simulation clock and the event queue so handlers can
/// schedule follow-up events relative to *now* without being able to move the
/// clock themselves.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Builds a scheduler over an external queue (the sharded engine's
    /// per-shard event loops construct these outside [`Simulation`]).
    pub(crate) fn over(now: SimTime, queue: &'a mut EventQueue<E>) -> Self {
        Scheduler { now, queue }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; scheduling into the past would break
    /// the causality of the simulation.
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at}, now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` to fire immediately (at the current instant, after
    /// all events already queued for this instant).
    pub fn immediately(&mut self, event: E) {
        self.queue.push(self.now, event);
    }
}

/// A simulation model: state plus an event handler.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at its firing time.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained.
    QueueEmpty,
    /// The next event lies beyond the requested horizon.
    HorizonReached,
    /// The configured step limit was hit (a runaway-model backstop).
    StepLimit,
}

/// A discrete-event simulation over a [`World`].
///
/// # Examples
///
/// ```
/// use spotcheck_simcore::engine::{Scheduler, Simulation, World};
/// use spotcheck_simcore::time::{SimDuration, SimTime};
///
/// /// Counts down from `n`, one tick per second.
/// struct Countdown {
///     n: u32,
/// }
///
/// impl World for Countdown {
///     type Event = ();
///     fn handle(&mut self, _event: (), sched: &mut Scheduler<'_, ()>) {
///         self.n -= 1;
///         if self.n > 0 {
///             sched.after(SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Countdown { n: 3 });
/// sim.schedule_at(SimTime::ZERO, ());
/// sim.run_to_completion();
/// assert_eq!(sim.world().n, 0);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    steps: u64,
    step_limit: u64,
}

impl<W: World> Simulation<W> {
    /// Default backstop on the number of processed events.
    pub const DEFAULT_STEP_LIMIT: u64 = u64::MAX;

    /// Creates a simulation at time zero over `world`.
    pub fn new(world: W) -> Self {
        Simulation::new_with_queue(world, EventQueue::new())
    }

    /// Creates a simulation at time zero over `world` with an explicitly
    /// constructed event queue.
    ///
    /// [`Simulation::new`] latches the process-wide default queue backend
    /// at construction; long-lived hosts (a daemon running several engine
    /// lifetimes) should instead pin the backend per simulation via
    /// [`EventQueue::with_backend`] and this constructor, so a later
    /// [`crate::queue::set_default_backend`] cannot change the meaning of
    /// an already-running simulation's configuration.
    pub fn new_with_queue(world: W, queue: EventQueue<W::Event>) -> Self {
        Simulation {
            world,
            queue,
            now: SimTime::ZERO,
            steps: 0,
            step_limit: Self::DEFAULT_STEP_LIMIT,
        }
    }

    /// Sets a backstop on the total number of events processed.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns a shared reference to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Returns an exclusive reference to the model.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation and returns the model.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an initial event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time.
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at}, now={}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules an initial event `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Processes a single event, if any is pending.
    ///
    /// Returns `true` if an event was processed.
    pub fn step(&mut self) -> bool {
        let Some((t, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "event queue produced an out-of-order event");
        self.now = t;
        self.steps += 1;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle(event, &mut sched);
        // Feed the peak-depth gauge after the handler's pushes land — the
        // queue is at its largest right here.
        crate::metrics::note_queue_depth(self.queue.len() as u64);
        true
    }

    /// Moves the clock forward to `t` without processing any event, the
    /// way [`Simulation::run_until`] closes out at its horizon. Returns
    /// false, leaving the clock as it is, if an event is due before `t`.
    /// Events due exactly at `t` stay pending.
    pub fn advance_clock(&mut self, t: SimTime) -> bool {
        if self.queue.peek_time().is_some_and(|next| next < t) {
            return false;
        }
        self.now = self.now.max(t);
        true
    }

    /// The number of events currently pending in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The firing time of the earliest pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs until the queue drains, the next event would fire after
    /// `horizon`, or the step limit is hit.
    ///
    /// Events firing exactly at `horizon` are processed. On
    /// [`StopReason::HorizonReached`], the clock is advanced to `horizon` so
    /// that time-weighted accounting can close out cleanly.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        loop {
            if self.steps >= self.step_limit {
                return StopReason::StepLimit;
            }
            match self.queue.peek_time() {
                None => return StopReason::QueueEmpty,
                Some(t) if t > horizon => {
                    self.now = horizon.max(self.now);
                    return StopReason::HorizonReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Runs until the queue drains or the step limit is hit.
    pub fn run_to_completion(&mut self) -> StopReason {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the order in which events arrive.
    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.log.push((sched.now(), event));
            // Event 1 spawns a chain: 10 at +1s, 11 immediately.
            if event == 1 {
                sched.after(SimDuration::from_secs(1), 10);
                sched.immediately(11);
            }
        }
    }

    #[test]
    fn processes_in_causal_order() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.schedule_at(SimTime::from_secs(5), 2);
        sim.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(sim.run_to_completion(), StopReason::QueueEmpty);
        assert_eq!(
            sim.world().log,
            vec![
                (SimTime::from_secs(1), 1),
                (SimTime::from_secs(1), 11),
                (SimTime::from_secs(2), 10),
                (SimTime::from_secs(5), 2),
            ]
        );
    }

    #[test]
    fn horizon_stops_and_advances_clock() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.schedule_at(SimTime::from_secs(10), 2);
        let reason = sim.run_until(SimTime::from_secs(3));
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert!(sim.world().log.is_empty());
        // Event at exactly the horizon is processed.
        let reason = sim.run_until(SimTime::from_secs(10));
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(sim.world().log.len(), 1);
    }

    #[test]
    fn advance_clock_never_skips_an_event() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.schedule_at(SimTime::from_secs(10), 2);
        assert!(sim.advance_clock(SimTime::from_secs(4)));
        assert_eq!(sim.now(), SimTime::from_secs(4));
        // An event due at the target stays pending; one before it refuses.
        assert!(sim.advance_clock(SimTime::from_secs(10)));
        assert!(!sim.advance_clock(SimTime::from_secs(11)));
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert!(sim.world().log.is_empty());
        assert_eq!(sim.steps(), 0);
    }

    #[test]
    fn step_limit_is_a_backstop() {
        /// Reschedules itself forever.
        struct Loopy;
        impl World for Loopy {
            type Event = ();
            fn handle(&mut self, _e: (), sched: &mut Scheduler<'_, ()>) {
                sched.after(SimDuration::from_secs(1), ());
            }
        }
        let mut sim = Simulation::new(Loopy).with_step_limit(100);
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(sim.run_to_completion(), StopReason::StepLimit);
        assert_eq!(sim.steps(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.run_to_completion();
        sim.schedule_at(SimTime::ZERO, 2);
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = Simulation::new(Recorder { log: Vec::new() });
        assert!(!sim.step());
    }
}
