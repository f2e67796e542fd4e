//! Event sinks: the [`Recorder`] trait and its three implementations.

use crate::Event;
use std::collections::VecDeque;
use std::io;

/// An event sink. Instrumented code holds `&mut dyn Recorder`.
///
/// Call sites that build non-trivial events should guard on
/// [`Recorder::enabled`] so the disabled path skips event construction
/// entirely:
///
/// ```
/// # use iat_telemetry::{Event, Recorder, NullRecorder, Stamp};
/// # let mut rec = NullRecorder;
/// # let rec: &mut dyn Recorder = &mut rec;
/// if rec.enabled() {
///     rec.record(Event::Shuffle {
///         stamp: Stamp::default(),
///         reason: "overlap-degraded".into(),
///     });
/// }
/// ```
pub trait Recorder {
    /// Accepts one event.
    fn record(&mut self, event: Event);

    /// Whether events are observed at all. `false` lets call sites
    /// skip building events; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }
}

/// Drops every event: the zero-cost default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Bounded flight recorder keeping the most recent `capacity` events.
///
/// When full, the oldest event is evicted and counted in
/// [`RingRecorder::dropped`]. [`snapshot`](RingRecorder::snapshot)
/// copies the buffer oldest-first; [`drain`](RingRecorder::drain)
/// moves it out.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A flight recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> RingRecorder {
        assert!(capacity > 0, "RingRecorder capacity must be non-zero");
        // The buffer grows on demand: a generous bound (the per-thread
        // decision capture keeps 64 Ki records) costs nothing unused.
        RingRecorder { buf: VecDeque::new(), capacity, dropped: 0 }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held before eviction starts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted so far to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }

    /// Moves the buffered events out, oldest first, leaving the
    /// recorder empty (the dropped count is preserved).
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Streams each event as one line of JSON to an [`io::Write`].
///
/// Lines are the [`Event::to_json`] form, so a file written here reads
/// back with [`Event::from_json`] line by line. Write errors are
/// counted, not propagated — telemetry must never take down the run.
///
/// Dropping the recorder flushes the writer, so events buffered by a
/// `BufWriter` (or similar) are not silently lost when the caller
/// forgets to call [`flush`](JsonlRecorder::flush) or
/// [`into_inner`](JsonlRecorder::into_inner).
#[derive(Debug)]
pub struct JsonlRecorder<W: io::Write> {
    /// `None` only after `into_inner` moved the writer out (`Drop`
    /// cannot coexist with moving a field, hence the `Option`).
    out: Option<W>,
    lines: u64,
    write_errors: u64,
}

impl<W: io::Write> JsonlRecorder<W> {
    /// Wraps a writer (commonly a `File` or `Vec<u8>`).
    pub fn new(out: W) -> JsonlRecorder<W> {
        JsonlRecorder { out: Some(out), lines: 0, write_errors: 0 }
    }

    /// Lines successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Writes that failed (the run continues regardless).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("writer already taken");
        let _ = out.flush();
        out
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.out {
            Some(out) => out.flush(),
            None => Ok(()),
        }
    }
}

impl<W: io::Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: Event) {
        let Some(out) = &mut self.out else { return };
        match writeln!(out, "{}", event.to_json()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.write_errors += 1,
        }
    }
}

impl<W: io::Write> Drop for JsonlRecorder<W> {
    fn drop(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stamp;

    fn ev(iter: u64) -> Event {
        Event::Shuffle {
            stamp: Stamp { iter, time_ns: iter * 1000 },
            reason: format!("r{iter}"),
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(ev(1)); // must be a no-op
    }

    #[test]
    fn ring_wraparound_keeps_newest_in_order() {
        let mut r = RingRecorder::new(3);
        assert!(r.enabled());
        for i in 0..5 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let iters: Vec<u64> = r.snapshot().iter().map(|e| e.stamp().iter).collect();
        assert_eq!(iters, vec![2, 3, 4]);
    }

    #[test]
    fn ring_drain_empties_in_order_and_keeps_dropped() {
        let mut r = RingRecorder::new(2);
        for i in 0..3 {
            r.record(ev(i));
        }
        let drained: Vec<u64> = r.drain().iter().map(|e| e.stamp().iter).collect();
        assert_eq!(drained, vec![1, 2]);
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        r.record(ev(9));
        assert_eq!(r.snapshot()[0].stamp().iter, 9);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut r = JsonlRecorder::new(Vec::new());
        for i in 0..4 {
            r.record(ev(i));
        }
        assert_eq!(r.lines(), 4);
        assert_eq!(r.write_errors(), 0);
        let bytes = r.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| {
                let v: serde_json::Value = serde_json::from_str(l).expect("valid json");
                Event::from_json(&v).expect("valid event")
            })
            .collect();
        assert_eq!(events.len(), 4);
        assert_eq!(events[3], ev(3));
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        use std::rc::Rc;

        /// A writer whose flushed bytes land in a shared buffer, so the
        /// test can observe them after the recorder is gone.
        struct Shared(Rc<std::cell::RefCell<Vec<u8>>>);
        impl io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = Rc::new(std::cell::RefCell::new(Vec::new()));
        {
            // Large buffer: nothing reaches the sink until a flush.
            let buffered = io::BufWriter::with_capacity(1 << 20, Shared(Rc::clone(&sink)));
            let mut r = JsonlRecorder::new(buffered);
            r.record(ev(1));
            assert_eq!(r.lines(), 1);
            assert!(sink.borrow().is_empty(), "BufWriter must still hold the line");
            // Dropped without flush()/into_inner(): Drop must flush.
        }
        let text = String::from_utf8(sink.borrow().clone()).unwrap();
        let event = Event::from_json_line(text.lines().next().expect("one line")).unwrap();
        assert_eq!(event, ev(1));
    }

    #[test]
    fn jsonl_counts_write_errors() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("broken"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut r = JsonlRecorder::new(Broken);
        r.record(ev(0));
        assert_eq!(r.lines(), 0);
        assert_eq!(r.write_errors(), 1);
    }
}
