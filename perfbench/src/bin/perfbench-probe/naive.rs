//! The naive reference executor: a `BinaryHeap` of time-ordered boxed
//! events, each of which may yield further boxed events when executed —
//! the simplest discrete-event design (after the event loop of
//! akshayknarayan/simulator). It sets the bar the `ph_sim::World` slab
//! event queue must beat on the same null-actor ping-pong.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One schedulable unit of work.
pub trait Event {
    /// Executes at `now` against the node table, returning follow-ups as
    /// `(delay, event)` pairs.
    fn exec(&mut self, now: u64, nodes: &mut [Node]) -> Vec<(u64, Box<dyn Event>)>;
}

/// A null actor: it only counts what it receives.
#[derive(Debug, Default)]
pub struct Node {
    pub received: u64,
}

/// Heap entry: `(time, seq)` ordered as a min-heap; `seq` breaks ties in
/// insertion order so runs are deterministic.
struct Scheduled {
    at: u64,
    seq: u64,
    event: Box<dyn Event>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The executor: pop the earliest event, run it, push what it yields.
pub struct Executor {
    heap: BinaryHeap<Scheduled>,
    now: u64,
    seq: u64,
    pub nodes: Vec<Node>,
}

impl Executor {
    pub fn new(nodes: usize) -> Executor {
        Executor {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            nodes: (0..nodes).map(|_| Node::default()).collect(),
        }
    }

    pub fn push(&mut self, delay: u64, event: Box<dyn Event>) {
        self.seq += 1;
        self.heap.push(Scheduled {
            at: self.now + delay,
            seq: self.seq,
            event,
        });
    }

    /// Runs until the heap is empty; returns the number of events executed.
    pub fn run(&mut self) -> u64 {
        let mut executed = 0;
        while let Some(mut next) = self.heap.pop() {
            self.now = next.at;
            executed += 1;
            for (delay, ev) in next.event.exec(self.now, &mut self.nodes) {
                self.push(delay, ev);
            }
        }
        executed
    }
}

/// A message in flight between two null actors; delivering it sends the
/// reply until `left` hops are used up.
pub struct Hop {
    pub to: usize,
    pub from: usize,
    pub left: u64,
    pub payload: Box<u64>,
}

impl Event for Hop {
    fn exec(&mut self, _now: u64, nodes: &mut [Node]) -> Vec<(u64, Box<dyn Event>)> {
        nodes[self.to].received += *self.payload;
        if self.left == 0 {
            return Vec::new();
        }
        let reply = Hop {
            to: self.from,
            from: self.to,
            left: self.left - 1,
            payload: Box::new(1),
        };
        vec![(200_000, Box::new(reply) as Box<dyn Event>)]
    }
}

/// Ping-pongs `hops` messages between `pairs` independent actor pairs;
/// returns the events executed (one per delivered message).
pub fn pingpong(pairs: usize, hops: u64) -> u64 {
    let mut ex = Executor::new(pairs * 2);
    for p in 0..pairs {
        let hop = Hop {
            to: 2 * p + 1,
            from: 2 * p,
            left: hops - 1,
            payload: Box::new(1),
        };
        ex.push(p as u64, Box::new(hop));
    }
    let executed = ex.run();
    assert_eq!(
        ex.nodes.iter().map(|n| n.received).sum::<u64>(),
        executed,
        "every executed hop delivers exactly once"
    );
    executed
}
