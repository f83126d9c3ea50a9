//! Trace windows: the "skip N, simulate M" selection every simulation run
//! uses, whether the window was chosen arbitrarily (the articles' "skip 1
//! billion, simulate 2 billion") or by SimPoint.

use crate::inst::TraceInst;

/// A contiguous window of the dynamic instruction stream.
///
/// # Examples
///
/// ```
/// use microlib_trace::TraceWindow;
///
/// let w = TraceWindow::new(1_000, 5_000);
/// assert_eq!(w.skip, 1_000);
/// assert_eq!(w.simulate, 5_000);
/// assert_eq!(w.end(), 6_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceWindow {
    /// Instructions to fast-forward (functionally warmed, not timed).
    pub skip: u64,
    /// Instructions to simulate in detail.
    pub simulate: u64,
}

impl TraceWindow {
    /// Creates a window.
    pub fn new(skip: u64, simulate: u64) -> Self {
        TraceWindow { skip, simulate }
    }

    /// The window covering SimPoint interval `index` of length
    /// `interval_len`.
    pub fn simpoint_interval(index: usize, interval_len: u64) -> Self {
        TraceWindow {
            skip: index as u64 * interval_len,
            simulate: interval_len,
        }
    }

    /// First instruction past the window.
    pub fn end(&self) -> u64 {
        self.skip + self.simulate
    }

    /// Applies the window to an instruction stream.
    pub fn apply<I>(&self, stream: I) -> std::iter::Take<std::iter::Skip<I>>
    where
        I: Iterator<Item = TraceInst>,
    {
        stream.skip(self.skip as usize).take(self.simulate as usize)
    }
}

impl microlib_model::BinCodec for TraceWindow {
    fn encode(&self, e: &mut microlib_model::Encoder) {
        e.put_u64(self.skip);
        e.put_u64(self.simulate);
    }
    fn decode(d: &mut microlib_model::Decoder<'_>) -> Result<Self, microlib_model::CodecError> {
        Ok(TraceWindow {
            skip: d.take_u64()?,
            simulate: d.take_u64()?,
        })
    }
}

impl std::fmt::Display for TraceWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "skip {} simulate {}", self.skip, self.simulate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::workload::Workload;

    #[test]
    fn window_slices_the_stream() {
        let w = Workload::new(benchmarks::by_name("swim").unwrap(), 1);
        let full: Vec<_> = w.stream().take(300).collect();
        let window = TraceWindow::new(100, 50);
        let sliced: Vec<_> = window.apply(w.stream()).collect();
        assert_eq!(sliced.len(), 50);
        assert_eq!(sliced[..], full[100..150]);
    }

    #[test]
    fn simpoint_interval_window() {
        let w = TraceWindow::simpoint_interval(3, 10_000);
        assert_eq!(w.skip, 30_000);
        assert_eq!(w.simulate, 10_000);
        assert_eq!(w.end(), 40_000);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TraceWindow::new(5, 7).to_string(), "skip 5 simulate 7");
    }
}
