//! Bench-side spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (client issue, completion wait, server handler, store call,
//! serde); nothing inside the crates under test is instrumented. Every
//! span carries the id of the request it belongs to and the id of the span
//! that caused it. Spans stay in memory until the run ends, when
//! [`write_json`] writes them out.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dagger_rpc::Wire;

/// One finished span. Times are nanoseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id (ids start at 1).
    pub id: u64,
    /// The causing span's id, 0 for a request's root span.
    pub parent: u64,
    /// The request this span belongs to.
    pub req: u64,
    /// Layer operation, e.g. `rpc.issue`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Bytes the operation handled (serde spans), else 0.
    pub bytes: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by the generator and server threads.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserves a span id (so a span can be named as a parent before it
    /// starts).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// A position in a request's span tree: new spans become children of
/// `parent`. A probe without a log records nothing and only runs the
/// timed closures, so untraced code paths stay identical.
#[derive(Clone, Copy, Debug)]
pub struct Probe<'a> {
    log: Option<&'a SpanLog>,
    req: u64,
    parent: u64,
}

impl Probe<'static> {
    /// A probe that records nothing.
    pub fn off() -> Self {
        Probe {
            log: None,
            req: 0,
            parent: 0,
        }
    }
}

impl<'a> Probe<'a> {
    /// A probe at the root of request `req`'s tree.
    pub fn root(log: &'a SpanLog, req: u64) -> Self {
        Probe {
            log: Some(log),
            req,
            parent: 0,
        }
    }

    /// A probe whose spans become children of span `parent` of `req`.
    pub fn under(log: &'a SpanLog, req: u64, parent: u64) -> Self {
        Probe {
            log: Some(log),
            req,
            parent,
        }
    }

    /// Runs `f` inside a span named `name`, handing it a probe for child
    /// spans.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce(&Probe<'a>) -> T) -> T {
        match self.log {
            Some(log) => self.time_as(log.next_id(), name, 0, f),
            None => f(self),
        }
    }

    /// Like [`Probe::time`] under a span id reserved with
    /// [`SpanLog::next_id`], recording `bytes` on the span.
    pub fn time_as<T>(
        &self,
        id: u64,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce(&Probe<'a>) -> T,
    ) -> T {
        let Some(log) = self.log else {
            return f(self);
        };
        let child = Probe {
            log: Some(log),
            req: self.req,
            parent: id,
        };
        let start_ns = log.now();
        let out = f(&child);
        let end_ns = log.now();
        log.push(Span {
            id,
            parent: self.parent,
            req: self.req,
            name,
            start_ns,
            end_ns,
            bytes,
        });
        out
    }

    /// Encodes `msg` with the IDL wire format inside an `idl.encode` span.
    pub fn encode<M: Wire>(&self, msg: &M) -> Vec<u8> {
        self.time_as(
            self.log.map_or(0, SpanLog::next_id),
            "idl.encode",
            msg.encoded_len() as u64,
            |_| msg.to_wire(),
        )
    }

    /// Decodes `bytes` inside an `idl.decode` span.
    ///
    /// # Errors
    ///
    /// Returns the wire error of a malformed message.
    pub fn decode<M: Wire>(&self, bytes: &[u8]) -> dagger_types::Result<M> {
        let len = bytes.len() as u64;
        self.time_as(
            self.log.map_or(0, SpanLog::next_id),
            "idl.decode",
            len,
            |_| M::from_wire(bytes),
        )
    }
}

/// Where server-side spans attach: the client arms it with the request id
/// and wait-span id before issuing a traced call, and the bench handlers
/// read it. Only meaningful with one call outstanding.
#[derive(Debug, Default)]
pub struct ServerProbe {
    log: Option<std::sync::Arc<SpanLog>>,
    armed: AtomicBool,
    req: AtomicU64,
    parent: AtomicU64,
}

impl ServerProbe {
    /// A probe that records into `log` while armed.
    pub fn new(log: Option<std::sync::Arc<SpanLog>>) -> Self {
        ServerProbe {
            log,
            ..Default::default()
        }
    }

    /// Attaches the next server spans under span `parent` of `req`.
    pub fn arm(&self, req: u64, parent: u64) {
        self.req.store(req, Ordering::SeqCst);
        self.parent.store(parent, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops recording server spans.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// The probe a handler records under: off unless armed.
    pub fn probe(&self) -> Probe<'_> {
        match &self.log {
            Some(log) if self.armed.load(Ordering::SeqCst) => Probe::under(
                log,
                self.req.load(Ordering::SeqCst),
                self.parent.load(Ordering::SeqCst),
            ),
            _ => Probe::off(),
        }
    }
}

/// The part of `parent`'s interval that no child interval covers. Child
/// intervals are clipped to the parent and may overlap each other.
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration() - covered
}

/// Self time of every span, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        out.entry(s.name).or_default().push(self_time(s, kids));
    }
    out
}

/// Writes the run metadata and `spans` as one JSON object, one span per
/// line.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_json(spans: &[Span], meta: &[(String, String)], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    writeln!(out, "{{\"meta\": {{{}}},\n\"spans\": [", meta.join(", "))?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}{sep}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
