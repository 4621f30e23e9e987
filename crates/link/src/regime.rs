//! Link timing regimes: affine, finite-buffer queued, and lossy.
//!
//! The paper's MIPI port is an *affine* cost model — every message pays a
//! fixed latency plus a bandwidth term, and concurrent flows never contend
//! beyond the receiver-port serialization the simulator already imposes.
//! [`LinkRegime`] selects richer packet-level behavior on top of the same
//! [`LinkPortSpec`](crate::LinkPortSpec) numbers:
//!
//! - [`LinkRegime::Affine`] — the paper's model, bit-for-bit (the default);
//! - [`LinkRegime::Queued`] — per-receiver FIFO ingress queues with a
//!   finite buffer; a full buffer either stalls the sender
//!   ([`QueueDiscipline::Backpressure`]) or drops the message and charges
//!   a NACK round-trip per retry ([`QueueDiscipline::DropTail`]);
//! - [`LinkRegime::Lossy`] — deterministic per-packet loss with go-back-N
//!   retransmission ([`go_back_n_overhead`]).
//!
//! All regimes are fully deterministic: the lossy drop pattern is a pure
//! hash of `(message id, packet index, attempt)`, so a given program
//! produces the same timing on every run and on every thread count.

/// Packet (MTU) size assumed by the lossy go-back-N model, in bytes.
pub const LOSSY_MTU_BYTES: u64 = 256;

/// Go-back-N sender window in packets: one drop forces a retransmission
/// of up to this many in-flight packets.
pub const GO_BACK_N_WINDOW: u64 = 8;

/// Per-packet attempt cap for the lossy regime. After this many
/// consecutive deterministic drops the packet is forced through — a
/// modeling safety valve that keeps every simulation finite even at
/// extreme loss rates.
pub const LOSSY_MAX_ATTEMPTS: u32 = 64;

/// How a finite ingress buffer reacts to a message that does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueDiscipline {
    /// Lossless credit-based flow control: the sender stalls until the
    /// receiver drains enough bytes, then transmits. Nothing is ever
    /// dropped, so a permanently full buffer surfaces as a deadlock.
    Backpressure,
    /// Drop-tail: a message arriving at a full buffer is dropped and
    /// NACKed; the sender retransmits once room exists, paying one NACK
    /// round-trip per dropped attempt on top of the backpressure wait.
    DropTail {
        /// NACK round-trip penalty per dropped attempt, in cycles.
        nack_cycles: u64,
    },
}

/// Timing regime of a chip's chip-to-chip link port.
///
/// The regime changes *when* messages arrive, never *which* messages are
/// exchanged — compiled programs and schedules are regime-independent.
/// `Affine` is the default and reproduces the paper's numbers exactly;
/// `Queued` with an infinite buffer is timing-identical to `Affine` (see
/// `DESIGN.md` §11 for the argument).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkRegime {
    /// Affine per-message cost (fixed latency + bytes/bandwidth); the
    /// paper's model and the default.
    #[default]
    Affine,
    /// Per-receiver FIFO ingress queue with a finite buffer. Simultaneous
    /// sends through a shared port serialize and accrue queueing delay;
    /// a full buffer stalls or drops according to the discipline.
    ///
    /// Credit is returned when the receiver *consumes* a message (its
    /// matching receive executes), so a buffer smaller than the
    /// receiver's reduce fan-in times the message size can deadlock via
    /// head-of-line blocking: an out-of-order arrival holds the buffer
    /// while the message the receiver waits for is parked on credit.
    /// This is faithful credit-protocol behavior (real designs size
    /// ingress buffers to the fan-in or add virtual channels) and is
    /// reported as a typed deadlock error, never a hang.
    Queued {
        /// Ingress buffer capacity in bytes (`u64::MAX` = infinite).
        buffer_bytes: u64,
        /// Reaction to a message that does not fit in the buffer.
        discipline: QueueDiscipline,
    },
    /// Deterministic per-packet loss with go-back-N retransmission on top
    /// of the affine port arbitration.
    Lossy {
        /// Drop probability in parts per thousand (0..=999).
        drop_per_mille: u32,
        /// NACK round-trip penalty per drop, in cycles.
        nack_cycles: u64,
    },
}

impl LinkRegime {
    /// Default NACK round-trip used when a spelling omits it: one MIPI
    /// per-message latency (500 cycles).
    pub const DEFAULT_NACK_CYCLES: u64 = 500;

    /// `true` when this regime provably never departs from affine timing:
    /// `Affine` itself, or a queued regime whose buffer can never fill
    /// (infinite capacity). The periodic-extrapolation engine only trusts
    /// its fixed-point proof for such regimes and falls back to full
    /// simulation otherwise (`DESIGN.md` §11).
    #[must_use]
    pub fn contention_free(&self) -> bool {
        match self {
            LinkRegime::Affine => true,
            LinkRegime::Queued { buffer_bytes, .. } => *buffer_bytes == u64::MAX,
            LinkRegime::Lossy { .. } => false,
        }
    }

    /// Compact human/CSV label: `affine`, `qinf`, `q4096`,
    /// `qdrop4096n500`, `loss5n500`. Used by the sweep outputs to tag
    /// non-affine rows.
    #[must_use]
    pub fn label(&self) -> String {
        fn buf(bytes: u64) -> String {
            if bytes == u64::MAX {
                "inf".into()
            } else {
                bytes.to_string()
            }
        }
        match self {
            LinkRegime::Affine => "affine".into(),
            LinkRegime::Queued { buffer_bytes, discipline: QueueDiscipline::Backpressure } => {
                format!("q{}", buf(*buffer_bytes))
            }
            LinkRegime::Queued {
                buffer_bytes,
                discipline: QueueDiscipline::DropTail { nack_cycles },
            } => format!("qdrop{}n{nack_cycles}", buf(*buffer_bytes)),
            LinkRegime::Lossy { drop_per_mille, nack_cycles } => {
                format!("loss{drop_per_mille}n{nack_cycles}")
            }
        }
    }

    /// Parse the sweep-axis spelling of a regime:
    ///
    /// - `affine` — the default model;
    /// - `queued` — infinite-buffer backpressure queue;
    /// - `queued:BYTES` — finite-buffer backpressure queue;
    /// - `droptail:BYTES` / `droptail:BYTES:NACK` — finite drop-tail
    ///   queue (NACK defaults to [`Self::DEFAULT_NACK_CYCLES`]);
    /// - `lossy:PERMILLE` / `lossy:PERMILLE:NACK` — per-packet loss rate
    ///   in parts per thousand (1..=999).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown spellings, zero-sized
    /// buffers, or out-of-range loss rates.
    pub fn parse(name: &str) -> Result<Self, String> {
        fn bytes_of(s: &str, what: &str) -> Result<u64, String> {
            match s.parse::<u64>() {
                Ok(b) if b > 0 => Ok(b),
                _ => Err(format!("{what} wants a positive byte count, got '{s}'")),
            }
        }
        let mut parts = name.split(':');
        let head = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match (head, rest.as_slice()) {
            ("affine", []) => Ok(LinkRegime::Affine),
            ("queued", []) => Ok(LinkRegime::Queued {
                buffer_bytes: u64::MAX,
                discipline: QueueDiscipline::Backpressure,
            }),
            ("queued", [b]) => Ok(LinkRegime::Queued {
                buffer_bytes: bytes_of(b, "queued buffer")?,
                discipline: QueueDiscipline::Backpressure,
            }),
            ("droptail", [b]) => Ok(LinkRegime::Queued {
                buffer_bytes: bytes_of(b, "droptail buffer")?,
                discipline: QueueDiscipline::DropTail { nack_cycles: Self::DEFAULT_NACK_CYCLES },
            }),
            ("droptail", [b, n]) => Ok(LinkRegime::Queued {
                buffer_bytes: bytes_of(b, "droptail buffer")?,
                discipline: QueueDiscipline::DropTail {
                    nack_cycles: n
                        .parse()
                        .map_err(|_| format!("droptail NACK wants cycles, got '{n}'"))?,
                },
            }),
            ("lossy", [p]) | ("lossy", [p, _]) => {
                let per_mille: u32 = p
                    .parse()
                    .map_err(|_| format!("lossy rate wants parts per thousand, got '{p}'"))?;
                if per_mille == 0 || per_mille >= 1000 {
                    return Err(format!(
                        "lossy rate must be 1..=999 per mille, got {per_mille} (use 'affine' \
                         for a lossless link)"
                    ));
                }
                let nack_cycles = match rest.as_slice() {
                    [_, n] => {
                        n.parse().map_err(|_| format!("lossy NACK wants cycles, got '{n}'"))?
                    }
                    _ => Self::DEFAULT_NACK_CYCLES,
                };
                Ok(LinkRegime::Lossy { drop_per_mille: per_mille, nack_cycles })
            }
            _ => Err(format!(
                "unknown link regime '{name}' (expected affine, queued[:BYTES], \
                 droptail:BYTES[:NACK], or lossy:PERMILLE[:NACK])"
            )),
        }
    }
}

/// Outcome of the go-back-N accounting for one message in the lossy
/// regime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GoBackNOutcome {
    /// Extra link-busy cycles beyond the affine transfer cost (NACK
    /// round-trips plus window retransmission time).
    pub extra_cycles: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Packets retransmitted (each drop resends the in-flight window
    /// tail, go-back-N style).
    pub retransmits: u64,
    /// Packets that exhausted all [`LOSSY_MAX_ATTEMPTS`] attempts and
    /// were forced through by the modeling safety valve. A non-zero value
    /// means delivery was *assumed*, not achieved — observable so extreme
    /// loss rates are never mistaken for successful links.
    pub gave_up: u64,
}

/// Deterministic go-back-N overhead for one `bytes`-sized message.
///
/// The message is packetized into [`LOSSY_MTU_BYTES`]-sized packets. Each
/// packet's fate is a pure FNV-1a hash of `(msg_id, packet, attempt)`
/// compared against `drop_per_mille`; a drop costs one NACK round-trip
/// plus the retransmission of up to [`GO_BACK_N_WINDOW`] packets at
/// `packet_cycles` each. After [`LOSSY_MAX_ATTEMPTS`] consecutive drops a
/// packet is forced through so simulation always terminates.
///
/// Determinism matters more than statistical realism here: the same
/// template yields the same drop pattern on every run, which keeps sweep
/// outputs and pinned checksums reproducible.
#[must_use]
pub fn go_back_n_overhead(
    msg_id: u64,
    bytes: u64,
    packet_cycles: u64,
    drop_per_mille: u32,
    nack_cycles: u64,
) -> GoBackNOutcome {
    let mut out = GoBackNOutcome::default();
    if bytes == 0 || drop_per_mille == 0 {
        return out;
    }
    let per_mille = u64::from(drop_per_mille.min(999));
    let packets = bytes.div_ceil(LOSSY_MTU_BYTES);
    let msg_state = fnv_word(FNV_OFFSET, msg_id);
    for pkt in 0..packets {
        let pkt_state = fnv_word(msg_state, pkt);
        let mut delivered = false;
        for attempt in 0..LOSSY_MAX_ATTEMPTS {
            if attempt_hash(pkt_state, attempt) % 1000 >= per_mille {
                delivered = true;
                break;
            }
            let resend = GO_BACK_N_WINDOW.min(packets - pkt);
            out.drops += 1;
            out.retransmits += resend;
            out.extra_cycles =
                out.extra_cycles.saturating_add(nack_cycles.saturating_add(resend * packet_cycles));
        }
        if !delivered {
            out.gave_up += 1;
        }
    }
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^6` and `FNV_PRIME^8` (wrapping). Folding `k` zero bytes is
/// `k` multiplies by the prime with nothing in between (XOR with 0 is
/// the identity), so one multiply by a power stands for them.
const FNV_PRIME_POW6: u64 = fnv_prime_pow(6);
const FNV_PRIME_POW8: u64 = fnv_prime_pow(8);

const fn fnv_prime_pow(k: u32) -> u64 {
    let mut pow = 1u64;
    let mut i = 0;
    while i < k {
        pow = pow.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    pow
}

// `attempt_hash` folds only the attempt's low byte.
const _: () = assert!(LOSSY_MAX_ATTEMPTS <= 256);

/// Folds the eight little-endian bytes of `word` into FNV-1a state `h`.
/// A word below 2^16 (every packet index of a message under 16 MiB)
/// folds its two low bytes and then its six zero high bytes as one
/// multiply.
fn fnv_word(mut h: u64, word: u64) -> u64 {
    if word < 1 << 16 {
        h = (h ^ (word & 0xff)).wrapping_mul(FNV_PRIME);
        return (h ^ (word >> 8)).wrapping_mul(FNV_PRIME).wrapping_mul(FNV_PRIME_POW6);
    }
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a hash of `(msg_id, packet, attempt)` from `pkt_state`, the
/// state after the `msg_id` and `packet` words: the same value as the
/// bytewise hash over all 24 bytes for any `attempt < 256`.
#[inline]
fn attempt_hash(pkt_state: u64, attempt: u32) -> u64 {
    debug_assert!(attempt < 256);
    (pkt_state ^ u64::from(attempt)).wrapping_mul(FNV_PRIME_POW8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_is_default_and_contention_free() {
        assert_eq!(LinkRegime::default(), LinkRegime::Affine);
        assert!(LinkRegime::Affine.contention_free());
    }

    #[test]
    fn infinite_queue_is_contention_free_finite_is_not() {
        let inf = LinkRegime::parse("queued").unwrap();
        assert!(inf.contention_free());
        let finite = LinkRegime::parse("queued:4096").unwrap();
        assert!(!finite.contention_free());
        assert!(!LinkRegime::parse("lossy:5").unwrap().contention_free());
    }

    #[test]
    fn parse_round_trips_through_labels() {
        for (name, label) in [
            ("affine", "affine"),
            ("queued", "qinf"),
            ("queued:4096", "q4096"),
            ("droptail:2048", "qdrop2048n500"),
            ("droptail:2048:100", "qdrop2048n100"),
            ("lossy:5", "loss5n500"),
            ("lossy:5:1000", "loss5n1000"),
        ] {
            assert_eq!(LinkRegime::parse(name).unwrap().label(), label, "{name}");
        }
    }

    #[test]
    fn parse_rejects_bad_spellings() {
        for bad in ["", "queue", "queued:0", "queued:x", "lossy:0", "lossy:1000", "droptail:0"] {
            assert!(LinkRegime::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// Bytewise FNV-1a over the three words identifying one transmission
    /// attempt: the reference the folded hash must equal.
    fn drop_hash(msg_id: u64, packet: u64, attempt: u32) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [msg_id, packet, u64::from(attempt)] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    #[test]
    fn folded_hash_equals_bytewise_fnv() {
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        for i in 0..10_000u64 {
            // Mix full-width words with the small ones schedules emit,
            // straddling the 2^16 fast-path bound.
            let (msg, pkt) =
                if i % 2 == 0 { (next(), next()) } else { (next() % 4096, next() % (1 << 17)) };
            let attempt = (next() % 256) as u32;
            let folded = attempt_hash(fnv_word(fnv_word(FNV_OFFSET, msg), pkt), attempt);
            assert_eq!(folded, drop_hash(msg, pkt, attempt), "msg {msg} pkt {pkt} try {attempt}");
        }
        for attempt in 0..LOSSY_MAX_ATTEMPTS {
            let state = fnv_word(fnv_word(FNV_OFFSET, u64::MAX), 0);
            assert_eq!(attempt_hash(state, attempt), drop_hash(u64::MAX, 0, attempt));
        }
    }

    #[test]
    fn lossless_message_has_no_overhead() {
        let out = go_back_n_overhead(7, 4096, 256, 0, 500);
        assert_eq!(out, GoBackNOutcome::default());
        assert_eq!(go_back_n_overhead(7, 0, 256, 999, 500), GoBackNOutcome::default());
    }

    #[test]
    fn overhead_is_deterministic_and_monotone_in_rate() {
        let a = go_back_n_overhead(42, 1 << 20, 256, 50, 500);
        let b = go_back_n_overhead(42, 1 << 20, 256, 50, 500);
        assert_eq!(a, b);
        assert!(a.drops > 0, "5% over 4096 packets must drop something");
        let heavy = go_back_n_overhead(42, 1 << 20, 256, 500, 500);
        assert!(heavy.drops > a.drops);
        assert!(heavy.extra_cycles > a.extra_cycles);
    }

    #[test]
    fn every_drop_resends_at_most_one_window() {
        let out = go_back_n_overhead(3, 64 * LOSSY_MTU_BYTES, 10, 100, 500);
        assert!(out.retransmits <= out.drops * GO_BACK_N_WINDOW);
        assert!(out.retransmits >= out.drops, "each drop resends at least itself");
    }

    #[test]
    fn extreme_loss_still_terminates() {
        let out = go_back_n_overhead(1, 8 * LOSSY_MTU_BYTES, 10, 999, 10);
        assert!(out.drops >= 8, "0.1% success leaves long drop runs");
        assert!(out.drops <= 8 * u64::from(LOSSY_MAX_ATTEMPTS));
    }

    #[test]
    fn attempt_cap_exhaustion_is_observable() {
        // At 999 per mille each attempt survives with probability 1e-3,
        // so some packet in a long message exhausts all 64 attempts —
        // previously indistinguishable from a delivery. The drop counter
        // pins the exhausted packets at exactly MAX_ATTEMPTS drops each.
        let packets = 64u64;
        let out = go_back_n_overhead(1, packets * LOSSY_MTU_BYTES, 10, 999, 10);
        assert!(out.gave_up > 0, "999 per mille must exhaust some retry budget");
        assert!(out.gave_up <= packets);
        assert!(out.drops >= out.gave_up * u64::from(LOSSY_MAX_ATTEMPTS));
        // Moderate loss never gives up.
        let mild = go_back_n_overhead(42, 1 << 20, 256, 50, 500);
        assert_eq!(mild.gave_up, 0, "5% loss never hits the 64-attempt cap");
        // Deterministic like every other counter.
        let again = go_back_n_overhead(1, packets * LOSSY_MTU_BYTES, 10, 999, 10);
        assert_eq!(out, again);
    }
}
