//! Hardware prefetcher models.
//!
//! Paper §8 ("The impact of H/W prefetching") points out that Intel's L2
//! prefetchers assume contiguous layouts: the *adjacent cache line*
//! prefetcher pairs each line with its buddy, and the *streamer* chases
//! ascending/descending line runs within a 4 KB page. Slice-aware
//! allocation is deliberately non-contiguous, so these prefetchers stop
//! helping — an effect DESIGN.md lists as an ablation. The models here are
//! intentionally simple: they emit candidate line numbers for the machine
//! to fill into L2 in the background (no cycle cost to the core, matching
//! the fire-and-forget nature of hardware prefetch).

/// Configuration of the per-core L2 prefetchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Adjacent-cache-line prefetcher: fetch the 128 B buddy of each miss.
    pub adjacent_line: bool,
    /// L2 streamer: on a detected +1/-1 line stride, fetch `stream_depth`
    /// lines ahead (within the same 4 KB page).
    pub streamer: bool,
    /// How many lines ahead the streamer runs.
    pub stream_depth: u8,
}

impl PrefetchConfig {
    /// Both prefetchers off (the microbenchmark-friendly default; the
    /// paper's random-access experiments are insensitive to prefetch).
    pub fn disabled() -> Self {
        Self {
            adjacent_line: false,
            streamer: false,
            stream_depth: 0,
        }
    }

    /// Both prefetchers on, streamer depth 2 — the BIOS-default-like
    /// setting used by the prefetch ablation bench.
    pub fn bios_default() -> Self {
        Self {
            adjacent_line: true,
            streamer: true,
            stream_depth: 2,
        }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-core streamer state: last miss line and a stride confidence counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamerState {
    last_line: u64,
    dir: i8,
    confidence: u8,
}

/// Lines within one 4 KB page (64 lines of 64 B).
const LINES_PER_PAGE: u64 = 64;

/// The prefetch candidates of one demand miss, held on the stack.
///
/// At most 64: the adjacent-line buddy plus streamed lines, which stay in
/// the miss's 4 KB page and so number at most 63. Derefs to the
/// candidates in the order they are prefetched.
#[derive(Debug, Clone, Copy)]
pub struct Candidates {
    lines: [u64; LINES_PER_PAGE as usize],
    len: usize,
}

impl Candidates {
    fn new() -> Self {
        Self {
            lines: [0; LINES_PER_PAGE as usize],
            len: 0,
        }
    }

    fn push(&mut self, line: u64) {
        self.lines[self.len] = line;
        self.len += 1;
    }
}

impl std::ops::Deref for Candidates {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.lines[..self.len]
    }
}

impl StreamerState {
    /// Observes a demand miss on `line`; returns prefetch candidates.
    pub fn observe(&mut self, line: u64, cfg: &PrefetchConfig) -> Candidates {
        let mut out = Candidates::new();
        if cfg.adjacent_line {
            // The buddy line in the same aligned 128 B pair.
            out.push(line ^ 1);
        }
        if cfg.streamer {
            let delta = line as i64 - self.last_line as i64;
            if delta == 1 || delta == -1 {
                if self.dir == delta as i8 {
                    self.confidence = self.confidence.saturating_add(1);
                } else {
                    self.dir = delta as i8;
                    self.confidence = 1;
                }
                if self.confidence >= 2 {
                    for k in 1..=cfg.stream_depth as i64 {
                        let cand = line as i64 + delta * k;
                        if cand >= 0 && same_page(line, cand as u64) {
                            out.push(cand as u64);
                        }
                    }
                }
            } else {
                self.dir = 0;
                self.confidence = 0;
            }
            self.last_line = line;
        }
        out
    }
}

fn same_page(a: u64, b: u64) -> bool {
    a / LINES_PER_PAGE == b / LINES_PER_PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        let cfg = PrefetchConfig::disabled();
        let mut st = StreamerState::default();
        assert!(st.observe(100, &cfg).is_empty());
    }

    #[test]
    fn adjacent_line_pairs() {
        let cfg = PrefetchConfig {
            adjacent_line: true,
            streamer: false,
            stream_depth: 0,
        };
        let mut st = StreamerState::default();
        assert_eq!(*st.observe(10, &cfg), [11]);
        assert_eq!(*st.observe(11, &cfg), [10]);
    }

    #[test]
    fn streamer_needs_confidence() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 2,
        };
        let mut st = StreamerState::default();
        assert!(st.observe(100, &cfg).is_empty(), "first touch: no stride");
        assert!(st.observe(101, &cfg).is_empty(), "stride seen once");
        assert_eq!(*st.observe(102, &cfg), [103, 104], "stride confirmed");
    }

    #[test]
    fn streamer_stops_at_page_boundary() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 4,
        };
        let mut st = StreamerState::default();
        st.observe(60, &cfg);
        st.observe(61, &cfg);
        let out = st.observe(62, &cfg);
        assert_eq!(*out, [63], "lines 64+ are in the next 4 KB page");
    }

    #[test]
    fn streamer_handles_descending() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 1,
        };
        let mut st = StreamerState::default();
        st.observe(70, &cfg);
        st.observe(69, &cfg);
        assert_eq!(*st.observe(68, &cfg), [67]);
    }

    #[test]
    fn random_pattern_never_streams() {
        let cfg = PrefetchConfig::bios_default();
        let mut st = StreamerState::default();
        let mut streamed = 0;
        for line in [5u64, 900, 23, 4000, 17, 250] {
            let out = st.observe(line, &cfg);
            // Adjacent-line always fires; anything beyond one candidate
            // would be the streamer.
            streamed += out.len().saturating_sub(1);
        }
        assert_eq!(streamed, 0);
    }

    #[test]
    fn deepest_stream_fits_the_candidate_buffer() {
        let cfg = PrefetchConfig {
            adjacent_line: true,
            streamer: true,
            stream_depth: u8::MAX,
        };
        // A confirmed ascending stride landing on a page's first line
        // streams the other 63 lines of that page, plus the buddy.
        let mut st = StreamerState::default();
        st.observe(62, &cfg);
        st.observe(63, &cfg);
        let out = st.observe(64, &cfg);
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], 65, "the buddy comes first");
        assert_eq!(out[1..], (65..128).collect::<Vec<u64>>()[..]);
    }
}
