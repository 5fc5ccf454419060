//! A minimal supervised actor runtime (Akka-style, after Hewitt et al.).
//!
//! The paper's dataport "is built with the Akka framework, which facilitates
//! the creation of fault-tolerant applications based on the actor model.
//! Actors are independent, supervised processes that encapsulate data and
//! control logic and communicate via messages" (§2.3). This module provides
//! the same structural guarantees in a deterministic, single-threaded
//! runtime:
//!
//! * actors own their state and only interact through messages;
//! * message dispatch is FIFO and deterministic (a property the tests and
//!   the reproducibility goal rely on);
//! * actors are arranged in a supervision tree: a failing actor is
//!   restarted, and one that exceeds [`MAX_RESTARTS`] is stopped together
//!   with its whole subtree.
//!
//! The runtime is typed, as in Akka Typed: an [`ActorSystem<A>`] hosts one
//! actor type `A` with one message type `A::Msg`. An application with
//! several kinds of actor makes `A` an enum of them and `A::Msg` an enum of
//! their messages; an actor that receives a message it has no arm for
//! returns a [`Fault`], and supervision handles it like any other failure.

use std::collections::VecDeque;
use std::fmt;

/// Actor failure signalled from `handle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault(pub String);

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor fault: {}", self.0)
    }
}

impl std::error::Error for Fault {}

/// Restarts an actor may take; its next fault stops it and its subtree.
pub const MAX_RESTARTS: u32 = 5;

/// Handle to an actor: its slot in the system. Slots are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorRef(usize);

/// Behaviour of an actor.
pub trait Actor: Sized {
    /// The messages this actor handles.
    type Msg;

    /// Handle one message. Returning `Err` triggers supervision.
    fn handle(&mut self, ctx: &mut Context<'_, Self>, msg: Self::Msg) -> Result<(), Fault>;

    /// Called when the supervisor restarts this actor: reset volatile state.
    fn restarted(&mut self) {}

    /// Human-readable kind, for paths and diagnostics.
    fn kind(&self) -> &'static str {
        "actor"
    }
}

struct Cell<A> {
    actor: A,
    parent: Option<ActorRef>,
    children: Vec<ActorRef>,
    name: String,
    restarts: u32,
}

impl<A: Actor> fmt::Debug for Context<'_, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("self_ref", &self.self_ref)
            .finish_non_exhaustive()
    }
}

/// Side-effect interface handed to actors during message handling.
pub struct Context<'a, A: Actor> {
    system: &'a mut SystemCore<A>,
    /// The actor currently handling a message.
    pub self_ref: ActorRef,
}

impl<A: Actor> Context<'_, A> {
    /// Send a message to another actor (enqueued FIFO).
    pub fn send(&mut self, to: ActorRef, msg: A::Msg) {
        self.system.queue.push_back((to, msg));
    }
}

struct SystemCore<A: Actor> {
    /// One slot per actor ever spawned; a stopped actor's slot is `None`.
    /// The actor handling a message is out of its slot while it does.
    cells: Vec<Option<Cell<A>>>,
    queue: VecDeque<(ActorRef, A::Msg)>,
    /// Log of lifecycle events for observability/testing.
    events: Vec<LifecycleEvent>,
}

/// Lifecycle events recorded by the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// Actor spawned (path).
    Spawned(String),
    /// Actor restarted after a fault (path, fault).
    Restarted(String, String),
    /// Actor stopped (path, reason).
    Stopped(String, String),
    /// Message to a dead or unknown actor dropped.
    DeadLetter(String),
}

impl<A: Actor> SystemCore<A> {
    fn cell(&self, r: ActorRef) -> Option<&Cell<A>> {
        self.cells.get(r.0)?.as_ref()
    }

    fn cell_mut(&mut self, r: ActorRef) -> Option<&mut Cell<A>> {
        self.cells.get_mut(r.0)?.as_mut()
    }

    fn path(&self, r: ActorRef) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(r);
        while let Some(cell) = cur.and_then(|c| self.cell(c)) {
            parts.push(cell.name.as_str());
            cur = cell.parent;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }

    fn spawn(&mut self, parent: Option<ActorRef>, name: String, actor: A) -> ActorRef {
        let r = ActorRef(self.cells.len());
        self.cells.push(Some(Cell {
            actor,
            parent,
            children: Vec::new(),
            name,
            restarts: 0,
        }));
        if let Some(pc) = parent.and_then(|p| self.cell_mut(p)) {
            pc.children.push(r);
        }
        let path = self.path(r);
        self.events.push(LifecycleEvent::Spawned(path));
        r
    }

    fn stop_subtree(&mut self, r: ActorRef, reason: &str) {
        let Some(cell) = self.cell_mut(r) else {
            return;
        };
        for ch in std::mem::take(&mut cell.children) {
            self.stop_subtree(ch, reason);
        }
        let path = self.path(r);
        self.events
            .push(LifecycleEvent::Stopped(path, reason.to_string()));
        // Vacate the slot and unlink from the parent.
        let parent = self
            .cells
            .get_mut(r.0)
            .and_then(Option::take)
            .and_then(|c| c.parent);
        if let Some(pc) = parent.and_then(|p| self.cell_mut(p)) {
            pc.children.retain(|c| *c != r);
        }
    }

    fn handle_fault(&mut self, r: ActorRef, fault: Fault) {
        let Some(cell) = self.cell_mut(r) else {
            return;
        };
        cell.restarts += 1;
        if cell.restarts > MAX_RESTARTS {
            self.stop_subtree(r, "restart limit exceeded");
        } else {
            cell.actor.restarted();
            let path = self.path(r);
            self.events.push(LifecycleEvent::Restarted(path, fault.0));
        }
    }
}

/// The actor system: every actor in it is an `A`.
pub struct ActorSystem<A: Actor> {
    core: SystemCore<A>,
}

impl<A: Actor> Default for ActorSystem<A> {
    fn default() -> Self {
        ActorSystem {
            core: SystemCore {
                cells: Vec::new(),
                queue: VecDeque::new(),
                events: Vec::new(),
            },
        }
    }
}

impl<A: Actor> fmt::Debug for ActorSystem<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActorSystem")
            .field("actors", &self.actor_count())
            .field("queued", &self.core.queue.len())
            .finish_non_exhaustive()
    }
}

impl<A: Actor> ActorSystem<A> {
    /// Empty system.
    pub fn new() -> Self {
        ActorSystem::default()
    }

    /// Spawn a top-level actor.
    pub fn spawn(&mut self, name: impl Into<String>, actor: A) -> ActorRef {
        self.core.spawn(None, name.into(), actor)
    }

    /// Spawn an actor as a child of `parent` (supervision tree membership
    /// without being inside the parent's message handler). Under a stopped
    /// parent the actor is spawned parentless.
    pub fn spawn_child_of(
        &mut self,
        parent: ActorRef,
        name: impl Into<String>,
        actor: A,
    ) -> ActorRef {
        self.core.spawn(Some(parent), name.into(), actor)
    }

    /// Enqueue a message to an actor.
    pub fn send(&mut self, to: ActorRef, msg: A::Msg) {
        self.core.queue.push_back((to, msg));
    }

    /// Is the actor alive?
    #[cfg(test)]
    fn is_alive(&self, r: ActorRef) -> bool {
        self.core.cell(r).is_some()
    }

    /// Number of live actors.
    pub fn actor_count(&self) -> usize {
        self.core.cells.iter().flatten().count()
    }

    /// The hierarchical path of an actor (`/root/child/grandchild`).
    pub fn path(&self, r: ActorRef) -> String {
        self.core.path(r)
    }

    /// Lifecycle event log (append-only).
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.core.events
    }

    /// Direct children of an actor.
    pub fn children(&self, r: ActorRef) -> &[ActorRef] {
        self.core.cell(r).map_or(&[], |c| &c.children)
    }

    /// Borrow a live actor's state.
    pub fn get(&self, r: ActorRef) -> Option<&A> {
        self.core.cell(r).map(|c| &c.actor)
    }

    /// Dispatch queued messages until the queue is empty. Returns the number
    /// of messages processed.
    pub fn run_until_idle(&mut self) -> usize {
        let mut processed = 0;
        while let Some((to, msg)) = self.core.queue.pop_front() {
            processed += 1;
            // Take the cell out so its actor can borrow the system.
            let Some(mut cell) = self.core.cells.get_mut(to.0).and_then(Option::take) else {
                let e = LifecycleEvent::DeadLetter(format!("{to:?}"));
                self.core.events.push(e);
                continue;
            };
            let mut ctx = Context {
                system: &mut self.core,
                self_ref: to,
            };
            let result = cell.actor.handle(&mut ctx, msg);
            if let Some(slot) = self.core.cells.get_mut(to.0) {
                *slot = Some(cell);
            }
            if let Err(fault) = result {
                self.core.handle_fault(to, fault);
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test actor: counts pings, faults on `Boom`.
    #[derive(Default)]
    struct Counter {
        count: u32,
        restarts_seen: u32,
    }

    enum CounterMsg {
        Ping,
        Boom,
    }

    impl Actor for Counter {
        type Msg = CounterMsg;

        fn handle(&mut self, _ctx: &mut Context<'_, Self>, msg: CounterMsg) -> Result<(), Fault> {
            match msg {
                CounterMsg::Ping => {
                    self.count += 1;
                    Ok(())
                }
                CounterMsg::Boom => Err(Fault("boom".to_string())),
            }
        }

        fn restarted(&mut self) {
            self.count = 0;
            self.restarts_seen += 1;
        }

        fn kind(&self) -> &'static str {
            "counter"
        }
    }

    fn child(sys: &mut ActorSystem<Counter>, parent: ActorRef) -> ActorRef {
        let name = format!("child{}", sys.children(parent).len());
        sys.spawn_child_of(parent, name, Counter::default())
    }

    /// Fault `a` once more than it may restart, so it stops.
    fn exhaust_restarts(sys: &mut ActorSystem<Counter>, a: ActorRef) {
        for _ in 0..=MAX_RESTARTS {
            sys.send(a, CounterMsg::Boom);
        }
        sys.run_until_idle();
    }

    #[test]
    fn messages_are_processed_fifo() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("a", Counter::default());
        for _ in 0..5 {
            sys.send(a, CounterMsg::Ping);
        }
        assert_eq!(sys.run_until_idle(), 5);
        assert_eq!(sys.get(a).map(|c| c.count), Some(5));
    }

    #[test]
    fn restart_resets_state() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("a", Counter::default());
        sys.send(a, CounterMsg::Ping);
        sys.send(a, CounterMsg::Boom);
        sys.send(a, CounterMsg::Ping);
        sys.run_until_idle();
        assert!(sys.is_alive(a));
        assert_eq!(sys.get(a).map(|c| (c.count, c.restarts_seen)), Some((1, 1)));
        assert!(sys
            .events()
            .iter()
            .any(|e| matches!(e, LifecycleEvent::Restarted(p, f) if p == "/a" && f == "boom")));
    }

    #[test]
    fn restart_limit_stops_actor() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("a", Counter::default());
        exhaust_restarts(&mut sys, a);
        assert!(!sys.is_alive(a));
        assert!(sys
            .events()
            .iter()
            .any(|e| matches!(e, LifecycleEvent::Stopped(_, r) if r.contains("restart limit"))));
    }

    #[test]
    fn stop_strategy_removes_subtree() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("root", Counter::default());
        child(&mut sys, a);
        child(&mut sys, a);
        assert_eq!(sys.actor_count(), 3);
        let children = sys.children(a).to_vec();
        assert_eq!(children.len(), 2);
        exhaust_restarts(&mut sys, a);
        assert!(!sys.is_alive(a));
        for c in children {
            assert!(!sys.is_alive(c), "child should die with parent");
        }
        assert_eq!(sys.actor_count(), 0);
    }

    #[test]
    fn paths_reflect_hierarchy() {
        let mut sys = ActorSystem::new();
        let root = sys.spawn("dataport", Counter::default());
        let c = child(&mut sys, root);
        let gc = child(&mut sys, c);
        assert_eq!(sys.path(root), "/dataport");
        assert_eq!(sys.path(c), "/dataport/child0");
        assert_eq!(sys.path(gc), "/dataport/child0/child0");
    }

    #[test]
    fn dead_letters_recorded() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("a", Counter::default());
        exhaust_restarts(&mut sys, a);
        sys.send(a, CounterMsg::Ping);
        sys.run_until_idle();
        assert!(sys
            .events()
            .iter()
            .any(|e| matches!(e, LifecycleEvent::DeadLetter(_))));
    }

    #[test]
    fn spawning_under_a_stopped_parent_does_not_panic() {
        let mut sys = ActorSystem::new();
        let a = sys.spawn("a", Counter::default());
        exhaust_restarts(&mut sys, a);
        assert!(!sys.is_alive(a));
        let orphan = sys.spawn_child_of(a, "orphan", Counter::default());
        assert!(sys.is_alive(orphan));
        assert_eq!(sys.path(orphan), "/orphan");
        assert!(sys.children(a).is_empty());
    }
}
