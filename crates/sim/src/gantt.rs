//! Execution traces: a per-chip Gantt-style event log.
//!
//! When tracing is enabled ([`crate::Machine::run_traced`]), the executor
//! records one [`TraceEvent`] per busy interval — kernel executions,
//! blocking DMA, exposed DMA stalls, and link transfers — so schedules can
//! be inspected, rendered, or diffed. Tracing does not alter timing.

use crate::MemPath;

/// What a chip was doing during a traced interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// Kernel execution on the cluster (with its display label).
    Compute {
        /// Kernel label, e.g. `gemv[512x512]`.
        kernel: String,
    },
    /// Blocking DMA transfer or exposed stall on an async one.
    Dma {
        /// Path the transfer used.
        path: MemPath,
        /// Bytes moved (0 for pure stalls at `DmaWait`).
        bytes: u64,
    },
    /// Sending a message over the chip-to-chip link.
    Send {
        /// Destination chip index.
        to: usize,
        /// Payload bytes.
        bytes: u64,
    },
    /// Stalled waiting for an incoming message.
    RecvWait {
        /// Source chip index.
        from: usize,
    },
}

/// One busy interval of one chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Chip index.
    pub chip: usize,
    /// Interval start (cycles).
    pub start: u64,
    /// Interval end (cycles, exclusive).
    pub end: u64,
    /// Activity during the interval.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Interval length in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Pre-reserves room for `additional` events (the executor reserves
    /// one per instruction).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// All events, in the order the executor retired them.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one chip, sorted by start time.
    #[must_use]
    pub fn chip_events(&self, chip: usize) -> Vec<&TraceEvent> {
        let mut ev: Vec<&TraceEvent> = self.events.iter().filter(|e| e.chip == chip).collect();
        ev.sort_by_key(|e| e.start);
        ev
    }

    /// Verifies per-chip causality: no two events of the same chip
    /// overlap. Returns the first violating pair, if any.
    #[must_use]
    pub fn find_overlap(&self) -> Option<(&TraceEvent, &TraceEvent)> {
        let chips: std::collections::BTreeSet<usize> = self.events.iter().map(|e| e.chip).collect();
        for chip in chips {
            let ev = self.chip_events(chip);
            for pair in ev.windows(2) {
                if pair[1].start < pair[0].end {
                    // Found via sorted order; re-borrow from self for
                    // lifetime correctness.
                    return Some((pair[0], pair[1]));
                }
            }
        }
        None
    }

    /// Exports the trace in the Chrome tracing (`chrome://tracing`,
    /// Perfetto) JSON array format: one complete event (`"ph": "X"`) per
    /// interval, with the chip as the process id. Timestamps are emitted
    /// in cycles (Perfetto displays them as microseconds).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("[\n");
        for (i, e) in self.events.iter().enumerate() {
            let (name, cat) = match &e.kind {
                TraceKind::Compute { kernel } => (escape(kernel), "compute"),
                TraceKind::Dma { path, bytes } => (format!("dma {path} {bytes}B"), "dma"),
                TraceKind::Send { to, bytes } => (format!("send->chip{to} {bytes}B"), "c2c"),
                TraceKind::RecvWait { from } => (format!("wait<-chip{from}"), "c2c"),
            };
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": 0}}{}\n",
                e.start,
                e.duration(),
                e.chip,
                if i + 1 < self.events.len() { "," } else { "" },
            ));
        }
        out.push(']');
        out
    }

    /// Renders a compact text timeline: one line per event, grouped by
    /// chip. Intended for debugging small schedules.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let chips: std::collections::BTreeSet<usize> = self.events.iter().map(|e| e.chip).collect();
        for chip in chips {
            out.push_str(&format!("chip{chip}:\n"));
            for e in self.chip_events(chip) {
                let what = match &e.kind {
                    TraceKind::Compute { kernel } => format!("compute {kernel}"),
                    TraceKind::Dma { path, bytes } => format!("dma {path} {bytes}B"),
                    TraceKind::Send { to, bytes } => format!("send -> chip{to} {bytes}B"),
                    TraceKind::RecvWait { from } => format!("wait <- chip{from}"),
                };
                out.push_str(&format!("  [{:>10} .. {:>10}] {what}\n", e.start, e.end));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(chip: usize, start: u64, end: u64) -> TraceEvent {
        TraceEvent { chip, start, end, kind: TraceKind::Compute { kernel: "gemv".into() } }
    }

    #[test]
    fn duration() {
        assert_eq!(ev(0, 10, 25).duration(), 15);
    }

    #[test]
    fn overlap_detection() {
        let mut t = Trace::default();
        t.push(ev(0, 0, 10));
        t.push(ev(0, 10, 20));
        assert!(t.find_overlap().is_none());
        t.push(ev(0, 15, 30));
        assert!(t.find_overlap().is_some());
    }

    #[test]
    fn different_chips_may_overlap() {
        let mut t = Trace::default();
        t.push(ev(0, 0, 10));
        t.push(ev(1, 5, 15));
        assert!(t.find_overlap().is_none());
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::default();
        t.push(ev(0, 0, 10));
        t.push(TraceEvent {
            chip: 1,
            start: 5,
            end: 9,
            kind: TraceKind::Send { to: 0, bytes: 64 },
        });
        let json = t.to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("send->chip0 64B"));
        // Exactly one separating comma for two events.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn chrome_json_empty_trace() {
        assert_eq!(Trace::default().to_chrome_json(), "[\n]");
    }

    #[test]
    fn render_groups_by_chip() {
        let mut t = Trace::default();
        t.push(ev(1, 0, 5));
        t.push(ev(0, 0, 5));
        let s = t.render();
        let chip0 = s.find("chip0:").unwrap();
        let chip1 = s.find("chip1:").unwrap();
        assert!(chip0 < chip1);
    }
}
