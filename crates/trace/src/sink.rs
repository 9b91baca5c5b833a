//! Trace sinks: where events go.
//!
//! A sink is installed on the simulation kernel (or handed to an offline
//! pass) and receives every emitted [`TraceEvent`]. Sinks are
//! observational only — they have no way to signal back — so attaching
//! one cannot change the simulation schedule.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::{TraceEvent, TraceKind};

/// Receives trace events. `Send` so a sink can ride inside a sweep cell
/// that runs on a worker thread.
pub trait TraceSink: Send {
    /// Record one event. Events arrive in emission order, which is the
    /// kernel's deterministic dispatch order.
    fn record(&mut self, event: &TraceEvent);

    /// Does this sink want events of `kind` at all? Asked once, when the
    /// sink is attached; events of a kind it declines are never built. A
    /// sink that keeps only some events of a kind still filters those in
    /// [`TraceSink::record`].
    fn wants(&self, _kind: TraceKind) -> bool {
        true
    }
}

/// A bounded in-memory flight recorder. When full, the *oldest* events
/// are discarded — after an experiment you usually care about the most
/// recent window before the interesting moment.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the buffer into a vector, oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    /// Serialize the held events as JSONL (one line each, oldest first).
    pub fn to_jsonl(&self) -> String {
        jsonl_lines(&self.buf)
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }
}

/// A cloneable handle around a [`RingRecorder`]. Install one clone as
/// the kernel's sink and keep another to read the events back after the
/// run — this sidesteps the need to downcast a `Box<dyn TraceSink>`.
#[derive(Debug, Clone)]
pub struct SharedRecorder(Arc<Mutex<RingRecorder>>);

impl SharedRecorder {
    /// A shared recorder keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        SharedRecorder(Arc::new(Mutex::new(RingRecorder::new(capacity))))
    }

    /// Copy out the currently held events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.0
            .lock()
            .expect("recorder poisoned")
            .events()
            .cloned()
            .collect()
    }

    /// Serialize the held events as JSONL.
    pub fn to_jsonl(&self) -> String {
        self.0.lock().expect("recorder poisoned").to_jsonl()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.lock().expect("recorder poisoned").dropped()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.0.lock().expect("recorder poisoned").len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for SharedRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("recorder poisoned").record(event);
    }
}

/// Merge per-shard trace streams into one canonical stream.
///
/// Each shard of a sharded run records its own events in its kernel's
/// dispatch order, which is deterministic *per shard* but not globally
/// time-sorted relative to the other shards (departure events carry
/// future timestamps). The canonical merged order concatenates the
/// streams in shard order and then stable-sorts by timestamp: events at
/// equal times keep their shard-order relative position, so the merged
/// stream is a pure function of the per-shard streams — byte-identical
/// for any worker count, and independent of which thread recorded what
/// first.
pub fn merge_shard_streams(streams: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
    let mut merged: Vec<TraceEvent> = streams.into_iter().flatten().collect();
    merged.sort_by_key(TraceEvent::time_ns);
    merged
}

/// Serialize a merged stream as JSONL (one line per event).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    jsonl_lines(events)
}

/// One JSONL line per event, each newline-terminated, in one buffer.
fn jsonl_lines<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        ev.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// Streams events as JSONL to any writer (a file, a `Vec<u8>`, …).
#[derive(Debug)]
pub struct JsonlWriter<W: Write + Send> {
    w: Option<W>,
    /// The line being written, kept for its capacity.
    line: String,
    written: u64,
}

impl<W: Write + Send> JsonlWriter<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        JsonlWriter {
            w: Some(w),
            line: String::new(),
            written: 0,
        }
    }

    /// Events the underlying writer accepted so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and hand back the underlying writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        let mut w = self.w.take().expect("writer present until dropped");
        w.flush()?;
        Ok(w)
    }
}

impl JsonlWriter<BufWriter<File>> {
    /// Create (truncating) a JSONL trace file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlWriter<W> {
    fn record(&mut self, event: &TraceEvent) {
        // An experiment trace is best-effort on I/O errors: a full disk
        // should not abort the simulation itself, only stop the count.
        if let Some(w) = self.w.as_mut() {
            self.line.clear();
            event.write_jsonl(&mut self.line);
            self.line.push('\n');
            if w.write_all(self.line.as_bytes()).is_ok() {
                self.written += 1;
            }
        }
    }
}

impl<W: Write + Send> Drop for JsonlWriter<W> {
    fn drop(&mut self) {
        if let Some(w) = self.w.as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_jsonl;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::Reroute {
            t,
            node: 1,
            entry: 7,
            primary: 2,
            backup: 3,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for t in 1..=5 {
            r.record(&ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.events().map(TraceEvent::time_ns).collect();
        assert_eq!(ts, vec![3, 4, 5]);
    }

    #[test]
    fn shared_recorder_sees_events_through_clone() {
        let handle = SharedRecorder::new(16);
        let mut sink = handle.clone();
        sink.record(&ev(1));
        sink.record(&ev(2));
        assert_eq!(handle.len(), 2);
        assert_eq!(handle.snapshot()[0], ev(1));
        assert!(parse_jsonl(&handle.to_jsonl()).is_ok());
    }

    #[test]
    fn merge_is_time_sorted_and_shard_stable() {
        // Shard 0 recorded an event at t=5 before one at t=2 (future
        // departure timestamps); shard 1 has one at t=2 as well.
        let s0 = vec![ev(5), ev(2)];
        let s1 = vec![ev(2), ev(9)];
        let merged = merge_shard_streams(vec![s0, s1]);
        let ts: Vec<u64> = merged.iter().map(TraceEvent::time_ns).collect();
        assert_eq!(ts, vec![2, 2, 5, 9]);
        // Equal timestamps keep shard order: shard 0's t=2 first.
        assert_eq!(
            merge_shard_streams(vec![vec![ev(2)], vec![ev(2)]]),
            merge_shard_streams(vec![vec![ev(2)], vec![ev(2)]]),
        );
        let jsonl = events_to_jsonl(&merged);
        assert_eq!(parse_jsonl(&jsonl).unwrap(), merged);
    }

    /// Accepts `room` bytes, then fails like a full disk.
    struct FullAfter {
        room: usize,
        taken: Vec<u8>,
    }

    impl Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.room {
                return Err(io::Error::other("disk full"));
            }
            self.room -= buf.len();
            self.taken.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_writer_counts_only_lines_the_writer_took() {
        let line_len = ev(1).to_jsonl().len() + 1;
        let mut w = JsonlWriter::new(FullAfter {
            room: 2 * line_len + line_len / 2,
            taken: Vec::new(),
        });
        for t in 1..=5 {
            w.record(&ev(t));
        }
        assert_eq!(w.written(), 2, "three of five writes failed");
        let taken = w.into_inner().unwrap().taken;
        let back = parse_jsonl(std::str::from_utf8(&taken).unwrap()).unwrap();
        assert_eq!(back, vec![ev(1), ev(2)]);
    }

    #[test]
    fn jsonl_writer_output_parses_back() {
        let mut w = JsonlWriter::new(Vec::new());
        w.record(&ev(1));
        w.record(&ev(2));
        assert_eq!(w.written(), 2);
        let bytes = w.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, vec![ev(1), ev(2)]);
    }
}
