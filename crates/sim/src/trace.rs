//! Structured run traces.
//!
//! The trace is the ground truth of a simulation: every send, delivery, drop,
//! timer, crash, restart and actor annotation is recorded in order. The
//! partial-history tooling in `ph-core` consumes traces to (a) derive
//! happens-before relations for causality-guided perturbation and (b) give
//! oracles the evidence they report violations with.

use crate::emit::{JsonArray, JsonObject};
use crate::ids::{ActorId, MsgId, TimerId};
use crate::intern::Name;
use crate::time::{Duration, SimTime};

/// Why a message failed to reach its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link was partitioned at send time.
    Partitioned,
    /// The network loss model dropped it.
    Loss,
    /// An installed [`crate::Interceptor`] returned [`crate::Verdict::Drop`].
    Interceptor,
    /// The destination was crashed at delivery time.
    DestCrashed,
    /// The destination was crashed between the original delivery time and the
    /// release of a held message.
    Stale,
    /// A finite-bandwidth link's drop-tail queue was at capacity — organic
    /// congestion loss, not an injected fault.
    QueueFull,
}

/// One thing that happened during the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An actor was created.
    Spawned {
        /// The new actor.
        actor: ActorId,
        /// Its human-readable name (interned; prints like a `String`).
        name: Name,
    },
    /// An actor sent a message.
    MessageSent {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
    },
    /// A message reached its destination and was handled.
    MessageDelivered {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
    },
    /// A message was lost.
    MessageDropped {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
        /// Why it was lost.
        reason: DropReason,
    },
    /// An interceptor put a message on hold.
    MessageHeld {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
    },
    /// An interceptor delayed a message in flight ([`crate::Verdict::Delay`]).
    /// The message is still expected to arrive, `by` later than the network
    /// alone would have delivered it — the staleness injector's signature.
    MessageDelayed {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
        /// Extra in-flight latency added by the interceptor.
        by: Duration,
    },
    /// A message was admitted to a finite-bandwidth link's queue and had to
    /// wait behind earlier traffic — congestion made it later than
    /// propagation alone would have. Only recorded when `waited > 0`; an
    /// idle queued link delivers without ceremony.
    MessageQueued {
        /// Message id.
        id: MsgId,
        /// Sender.
        src: ActorId,
        /// Destination.
        dst: ActorId,
        /// Short payload type name (interned; prints like a `String`).
        kind: Name,
        /// Queue occupancy at admission (this message included).
        depth: u32,
        /// Time spent queued before transmission began.
        waited: Duration,
    },
    /// A held message was released back into the network.
    MessageReleased {
        /// Message id.
        id: MsgId,
    },
    /// A timer was armed.
    TimerSet {
        /// Owning actor.
        actor: ActorId,
        /// Timer id.
        timer: TimerId,
        /// Caller-chosen tag.
        tag: u64,
        /// When it will fire.
        fire_at: SimTime,
    },
    /// A timer fired.
    TimerFired {
        /// Owning actor.
        actor: ActorId,
        /// Timer id.
        timer: TimerId,
        /// Caller-chosen tag.
        tag: u64,
    },
    /// An actor crashed (volatile state will be lost on restart).
    Crashed {
        /// The crashed actor.
        actor: ActorId,
    },
    /// A crashed actor came back.
    Restarted {
        /// The restarted actor.
        actor: ActorId,
    },
    /// A component-level annotation written via [`crate::Ctx::annotate`].
    Annotation {
        /// The annotating actor.
        actor: ActorId,
        /// Annotation label (namespaced by convention, e.g. `"kubelet.run_pod"`).
        label: Name,
        /// Free-form payload.
        data: String,
    },
    /// A scoped operation opened via [`crate::Ctx::span_begin`]. Spans model
    /// request/reconcile scopes; matching `SpanEnd` events close them
    /// LIFO per `(actor, label)`.
    SpanBegin {
        /// The actor the span belongs to.
        actor: ActorId,
        /// Span label (e.g. `"reconcile"`).
        label: Name,
        /// Free-form detail attached at open time.
        detail: String,
    },
    /// Closes the innermost open span with this label on this actor; the
    /// world also records the span's duration into the actor's
    /// `"<label>.ns"` histogram.
    SpanEnd {
        /// The actor the span belongs to.
        actor: ActorId,
        /// Span label matching the corresponding `SpanBegin`.
        label: Name,
    },
}

/// A trace record: what happened, when, and its position in the total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the run's total order (dense, starting at 0).
    pub seq: u64,
    /// Logical time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The full, ordered record of a simulation run.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace on top of a recycled event buffer, keeping its
    /// capacity. Used by the world's trial buffer pool.
    pub(crate) fn with_buffer(mut events: Vec<TraceEvent>) -> Trace {
        events.clear();
        Trace { events }
    }

    /// Surrenders the backing event buffer so its capacity can be reused.
    pub(crate) fn take_buffer(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    pub(crate) fn push(&mut self, at: SimTime, kind: TraceEventKind) {
        let seq = self.events.len() as u64;
        self.events.push(TraceEvent { seq, at, kind });
    }

    /// A copy of this trace containing only the events matching `pred`,
    /// with original sequence numbers and timestamps preserved. For
    /// carving a focused export — say, the queue-physics slice of a
    /// congested run — out of a full record; the result is an export
    /// source, not a replayable run.
    pub fn filtered(&self, pred: impl Fn(&TraceEvent) -> bool) -> Trace {
        Trace {
            events: self.events.iter().filter(|e| pred(e)).cloned().collect(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over events in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// All annotations with the given label, in order, as `(actor, data)`.
    pub fn annotations<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = (ActorId, &'a str)> + 'a {
        self.events.iter().filter_map(move |e| match &e.kind {
            TraceEventKind::Annotation {
                actor,
                label: l,
                data,
            } if l == label => Some((*actor, data.as_str())),
            _ => None,
        })
    }

    /// All annotations from one actor, in order, as `(label, data)`.
    pub fn annotations_of(&self, actor: ActorId) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.events.iter().filter_map(move |e| match &e.kind {
            TraceEventKind::Annotation {
                actor: a,
                label,
                data,
            } if *a == actor => Some((label.as_str(), data.as_str())),
            _ => None,
        })
    }

    /// Counts events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// A 64-bit order-sensitive digest of the trace; two runs with equal
    /// digests almost certainly behaved identically. Used by determinism
    /// tests and by the harness to deduplicate schedules.
    ///
    /// The hashed bytes are each event's `at.0.to_le_bytes()` followed by
    /// the `format!("{:?}")` rendering of its kind — but rendered through
    /// [`render_kind`] into one reused buffer, because `core::fmt` plus a
    /// fresh `String` per event used to dominate whole-trial wall time.
    pub fn digest(&self) -> u64 {
        // FNV-1a over a stable textual rendering of each event.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut buf: Vec<u8> = Vec::with_capacity(160);
        for e in &self.events {
            eat(&e.at.0.to_le_bytes());
            buf.clear();
            render_kind(&e.kind, &mut buf);
            eat(&buf);
        }
        h
    }

    /// Renders the trace as a JSON array of `{seq, at_ns, event}` objects,
    /// `event` being the kind's `Debug` rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 2);
        let mut events = JsonArray::new(&mut out);
        for e in &self.events {
            let mut o = JsonObject::new(events.item());
            o.raw("seq", e.seq)
                .raw("at_ns", e.at.0)
                .str("event", &format!("{:?}", e.kind));
            o.close();
        }
        events.close();
        out
    }
}

/// Appends the decimal rendering of `v` to `buf` (no allocation).
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut i = tmp.len();
    loop {
        i -= 1;
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&tmp[i..]);
}

/// Appends the exact `format!("{:?}", s)` bytes of a `str` to `buf`.
///
/// The fast path covers the strings the sim actually produces (plain
/// printable ASCII); anything needing escapes goes char-by-char through
/// [`char::escape_debug`], matching `str`'s `Debug` impl — which, unlike
/// `char`'s, leaves single quotes unescaped.
fn push_str_debug(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    if s.bytes()
        .all(|b| (0x20..=0x7e).contains(&b) && b != b'"' && b != b'\\')
    {
        buf.extend_from_slice(s.as_bytes());
    } else {
        let mut utf8 = [0u8; 4];
        for c in s.chars() {
            if c == '\'' {
                buf.push(b'\'');
            } else {
                for esc in c.escape_debug() {
                    buf.extend_from_slice(esc.encode_utf8(&mut utf8).as_bytes());
                }
            }
        }
    }
    buf.push(b'"');
}

/// Appends `ActorId(n)`-style tuple-struct Debug bytes.
fn push_id(buf: &mut Vec<u8>, name: &[u8], v: u64) {
    buf.extend_from_slice(name);
    buf.push(b'(');
    push_u64(buf, v);
    buf.push(b')');
}

/// Streams the byte-exact derived-`Debug` rendering of a kind into `buf`.
///
/// This MUST stay byte-identical to `format!("{:?}", kind)` — the trace
/// digest is defined over those bytes, and replay verification compares
/// digests across builds. `digest_render_matches_derived_debug` pins the
/// equivalence for every variant.
fn render_kind(kind: &TraceEventKind, buf: &mut Vec<u8>) {
    use TraceEventKind::*;
    match kind {
        Spawned { actor, name } => {
            buf.extend_from_slice(b"Spawned { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", name: ");
            push_str_debug(buf, name);
            buf.extend_from_slice(b" }");
        }
        MessageSent { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageSent { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageDelivered { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageDelivered { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageHeld { id, src, dst, kind } => {
            buf.extend_from_slice(b"MessageHeld { id: ");
            push_msg_header(buf, *id, *src, *dst, kind);
        }
        MessageDelayed {
            id,
            src,
            dst,
            kind,
            by,
        } => {
            buf.extend_from_slice(b"MessageDelayed { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", by: ");
            push_id(buf, b"Duration", by.0);
            buf.extend_from_slice(b" }");
        }
        MessageDropped {
            id,
            src,
            dst,
            kind,
            reason,
        } => {
            buf.extend_from_slice(b"MessageDropped { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", reason: ");
            buf.extend_from_slice(match reason {
                DropReason::Partitioned => b"Partitioned".as_slice(),
                DropReason::Loss => b"Loss",
                DropReason::Interceptor => b"Interceptor",
                DropReason::DestCrashed => b"DestCrashed",
                DropReason::Stale => b"Stale",
                DropReason::QueueFull => b"QueueFull",
            });
            buf.extend_from_slice(b" }");
        }
        MessageQueued {
            id,
            src,
            dst,
            kind,
            depth,
            waited,
        } => {
            buf.extend_from_slice(b"MessageQueued { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b", src: ");
            push_id(buf, b"ActorId", src.0 as u64);
            buf.extend_from_slice(b", dst: ");
            push_id(buf, b"ActorId", dst.0 as u64);
            buf.extend_from_slice(b", kind: ");
            push_str_debug(buf, kind);
            buf.extend_from_slice(b", depth: ");
            push_u64(buf, *depth as u64);
            buf.extend_from_slice(b", waited: ");
            push_id(buf, b"Duration", waited.0);
            buf.extend_from_slice(b" }");
        }
        MessageReleased { id } => {
            buf.extend_from_slice(b"MessageReleased { id: ");
            push_id(buf, b"MsgId", id.0);
            buf.extend_from_slice(b" }");
        }
        TimerSet {
            actor,
            timer,
            tag,
            fire_at,
        } => {
            buf.extend_from_slice(b"TimerSet { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", timer: ");
            push_id(buf, b"TimerId", timer.0);
            buf.extend_from_slice(b", tag: ");
            push_u64(buf, *tag);
            buf.extend_from_slice(b", fire_at: ");
            push_id(buf, b"SimTime", fire_at.0);
            buf.extend_from_slice(b" }");
        }
        TimerFired { actor, timer, tag } => {
            buf.extend_from_slice(b"TimerFired { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", timer: ");
            push_id(buf, b"TimerId", timer.0);
            buf.extend_from_slice(b", tag: ");
            push_u64(buf, *tag);
            buf.extend_from_slice(b" }");
        }
        Crashed { actor } => {
            buf.extend_from_slice(b"Crashed { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b" }");
        }
        Restarted { actor } => {
            buf.extend_from_slice(b"Restarted { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b" }");
        }
        Annotation { actor, label, data } => {
            buf.extend_from_slice(b"Annotation { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b", data: ");
            push_str_debug(buf, data);
            buf.extend_from_slice(b" }");
        }
        SpanBegin {
            actor,
            label,
            detail,
        } => {
            buf.extend_from_slice(b"SpanBegin { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b", detail: ");
            push_str_debug(buf, detail);
            buf.extend_from_slice(b" }");
        }
        SpanEnd { actor, label } => {
            buf.extend_from_slice(b"SpanEnd { actor: ");
            push_id(buf, b"ActorId", actor.0 as u64);
            buf.extend_from_slice(b", label: ");
            push_str_debug(buf, label);
            buf.extend_from_slice(b" }");
        }
    }
}

/// Shared tail of the `MessageSent`/`Delivered`/`Held` renderings (the
/// three differ only in the variant name).
fn push_msg_header(buf: &mut Vec<u8>, id: MsgId, src: ActorId, dst: ActorId, kind: &str) {
    push_id(buf, b"MsgId", id.0);
    buf.extend_from_slice(b", src: ");
    push_id(buf, b"ActorId", src.0 as u64);
    buf.extend_from_slice(b", dst: ");
    push_id(buf, b"ActorId", dst.0 as u64);
    buf.extend_from_slice(b", kind: ");
    push_str_debug(buf, kind);
    buf.extend_from_slice(b" }");
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every variant, with strings that exercise the escape
    /// fallback: quotes, backslashes, control chars, unicode, combining
    /// (grapheme-extended) marks, and the single quote `str`'s Debug does
    /// NOT escape.
    fn every_kind() -> Vec<TraceEventKind> {
        use TraceEventKind::*;
        let tricky = [
            "plain",
            "",
            "with \"quotes\" and \\backslash\\",
            "tab\tnewline\nnull\0",
            "unicode: héllo ✓ — 日本語",
            "combining: e\u{301} (grapheme-extended)",
            "single 'quotes' stay raw",
        ];
        let mut kinds = Vec::new();
        for (i, s) in tricky.iter().enumerate() {
            let i = i as u64;
            kinds.extend([
                Spawned {
                    actor: ActorId(i as u32),
                    name: (*s).into(),
                },
                MessageSent {
                    id: MsgId(i),
                    src: ActorId(0),
                    dst: ActorId(u32::MAX),
                    kind: (*s).into(),
                },
                MessageDelivered {
                    id: MsgId(u64::MAX),
                    src: ActorId(1),
                    dst: ActorId(2),
                    kind: (*s).into(),
                },
                MessageHeld {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                },
                MessageDelayed {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                    by: Duration(i * 90_000_000),
                },
                MessageQueued {
                    id: MsgId(i),
                    src: ActorId(3),
                    dst: ActorId(4),
                    kind: (*s).into(),
                    depth: i as u32 + 1,
                    waited: Duration(i * 70_000),
                },
                MessageReleased { id: MsgId(i) },
                TimerSet {
                    actor: ActorId(5),
                    timer: TimerId(i),
                    tag: i * 1000,
                    fire_at: SimTime(u64::MAX - i),
                },
                TimerFired {
                    actor: ActorId(6),
                    timer: TimerId(i),
                    tag: 0,
                },
                Crashed { actor: ActorId(7) },
                Restarted { actor: ActorId(8) },
                Annotation {
                    actor: ActorId(9),
                    label: (*s).into(),
                    data: (*s).to_string(),
                },
                SpanBegin {
                    actor: ActorId(10),
                    label: (*s).into(),
                    detail: (*s).to_string(),
                },
                SpanEnd {
                    actor: ActorId(11),
                    label: (*s).into(),
                },
            ]);
            for reason in [
                DropReason::Partitioned,
                DropReason::Loss,
                DropReason::Interceptor,
                DropReason::DestCrashed,
                DropReason::Stale,
                DropReason::QueueFull,
            ] {
                kinds.push(MessageDropped {
                    id: MsgId(i),
                    src: ActorId(12),
                    dst: ActorId(13),
                    kind: (*s).into(),
                    reason,
                });
            }
        }
        kinds
    }

    /// The digest is defined over `format!("{:?}")` bytes; the streaming
    /// renderer must reproduce them exactly for every variant and every
    /// escape class.
    #[test]
    fn digest_render_matches_derived_debug() {
        for kind in every_kind() {
            let mut buf = Vec::new();
            render_kind(&kind, &mut buf);
            assert_eq!(
                String::from_utf8(buf).unwrap(),
                format!("{kind:?}"),
                "streamed rendering diverged"
            );
        }
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.push(
            SimTime(1),
            TraceEventKind::Spawned {
                actor: ActorId(0),
                name: "a".into(),
            },
        );
        t.push(
            SimTime(2),
            TraceEventKind::Annotation {
                actor: ActorId(0),
                label: "x".into(),
                data: "one".into(),
            },
        );
        t.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "x".into(),
                data: "two".into(),
            },
        );
        t.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "y".into(),
                data: "three".into(),
            },
        );
        t
    }

    #[test]
    fn seq_is_dense_and_ordered() {
        let t = sample();
        for (i, e) in t.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn annotation_queries_filter_correctly() {
        let t = sample();
        let xs: Vec<_> = t.annotations("x").collect();
        assert_eq!(xs, vec![(ActorId(0), "one"), (ActorId(1), "two")]);
        let of1: Vec<_> = t.annotations_of(ActorId(1)).collect();
        assert_eq!(of1, vec![("x", "two"), ("y", "three")]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = sample();
        let mut b = Trace::new();
        // Same events, different order of the two annotations at t=3.
        b.push(
            SimTime(1),
            TraceEventKind::Spawned {
                actor: ActorId(0),
                name: "a".into(),
            },
        );
        b.push(
            SimTime(2),
            TraceEventKind::Annotation {
                actor: ActorId(0),
                label: "x".into(),
                data: "one".into(),
            },
        );
        b.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "y".into(),
                data: "three".into(),
            },
        );
        b.push(
            SimTime(3),
            TraceEventKind::Annotation {
                actor: ActorId(1),
                label: "x".into(),
                data: "two".into(),
            },
        );
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), sample().digest());
    }

    #[test]
    fn to_json_is_wellformed_array() {
        let t = sample();
        let j = t.to_json();
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert_eq!(j.matches("\"seq\":").count(), 4);
    }

    #[test]
    fn count_applies_predicate() {
        let t = sample();
        let n = t.count(|e| matches!(&e.kind, TraceEventKind::Annotation { .. }));
        assert_eq!(n, 3);
    }
}
