//! The open-loop generator's connection loop: one keep-alive
//! connection, requests written at their scheduled times whether or not
//! earlier ones have been answered (pipelining), responses read back in
//! order. One thread drives one connection; between sends it blocks in
//! `ppoll` until a response arrives or the next send falls due, so the
//! generator burns no core spinning next to the server it measures.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        pub fn prctl(option: i32, ...) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable Timespec for the whole call, and
    // callers pass only the process and thread CPU clocks, which every
    // Linux kernel provides.
    unsafe {
        sys::clock_gettime(clock, &mut ts);
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time this process has used so far, all threads, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// Ask the kernel for 1 µs timer slack on the calling thread, so a
/// `ppoll` timeout wakes the generator when the next send is due rather
/// than up to the default 50 µs later.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1u64);
    }
}

/// Wait until `fd` is readable (or writable, when `want_write`), or
/// `timeout_ns` passes.
fn wait(fd: i32, want_write: bool, timeout_ns: u64) {
    let mut pfd = sys::PollFd {
        fd,
        events: sys::POLLIN | if want_write { sys::POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, nfds is
    // 1 to match the single PollFd, and a null sigmask keeps the
    // thread's signal mask. Interrupted or failed waits just return;
    // the caller re-checks the socket and the clock.
    unsafe {
        sys::ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// What `drive` checks in a response body.
#[derive(Debug, Clone)]
pub enum Check {
    /// Status only.
    Status,
    /// A single quote: the `price` must have exactly these bits.
    Price(u64),
    /// A bulk quote: the `price` of every item, in order.
    Bulk(Vec<u64>),
    /// An observation: note whether it recalibrated.
    Observe,
    /// Keep the body for the caller (metrics scrapes, trace exports).
    Keep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Price,
    Bulk,
    Observe,
    Scrape,
    TraceExport,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Op {
    /// Scheduled send time, ns after the phase starts.
    pub due_ns: u64,
    pub kind: Kind,
    pub request: Vec<u8>,
    pub check: Check,
    /// `x-ft-trace` id carried by the request, 0 when untraced.
    pub trace_id: u64,
    /// Index of the observation it reports (`usize::MAX` for others).
    pub observation: usize,
}

/// What happened to one request. Times are on the `ft_trace` clock.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub op: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// HTTP status; 0 when the request never got an answer.
    pub status: u16,
    /// Whether the request went out at all (a knee probe past capacity
    /// stops sending).
    pub sent: bool,
    /// The body passed its check.
    pub correct: bool,
    pub recalibrated: bool,
    pub body: Option<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) && self.correct
    }

    /// Latency from the intended send time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// Round trip from the actual send.
    pub fn rtt_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.sent_ns)
    }

    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Render one HTTP/1.1 request.
pub fn request(method: &str, path: &str, body: &str, trace_id: u64) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if trace_id != 0 {
        out.push_str(&format!("x-ft-trace: {trace_id:016x}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Parse one complete response at the front of `buf`: `(status,
/// body range, total length)`, or `None` until it has fully arrived.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let total = head_end + length;
    (buf.len() >= total).then_some((status, head_end..total, total))
}

/// Every `"price":<number>` in a body, as f64 bits, in order.
pub fn prices(body: &[u8]) -> Vec<u64> {
    let text = std::str::from_utf8(body).unwrap_or("");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"price\":") {
        rest = &rest[at + 8..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        match rest[..end].parse::<f64>() {
            Ok(p) => out.push(p.to_bits()),
            Err(_) => out.push(u64::MAX),
        }
        rest = &rest[end..];
    }
    out
}

fn check(op: &Op, status: u16, body: &[u8]) -> (bool, bool, Option<String>) {
    if !(200..300).contains(&status) {
        return (false, false, None);
    }
    match &op.check {
        Check::Status => (true, false, None),
        Check::Price(bits) => (prices(body) == [*bits], false, None),
        Check::Bulk(bits) => (prices(body) == *bits, false, None),
        Check::Observe => {
            let text = std::str::from_utf8(body).unwrap_or("");
            (true, text.contains("\"recalibrated\":true"), None)
        }
        Check::Keep => (
            true,
            false,
            Some(String::from_utf8_lossy(body).into_owned()),
        ),
    }
}

/// How long `drive` waits for stragglers after the last send.
const DRAIN_NS: u64 = 20_000_000_000;

/// How a connection sends its requests.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Open loop: every request at its scheduled time.
    Open,
    /// A knee probe: open loop, but stop sending once the oldest
    /// outstanding request is `give_up_ns` past its scheduled time or an
    /// answer is not a success. The probe has failed then.
    Probe { give_up_ns: u64 },
}

/// Drive `ops` (sorted by `due_ns`) over one fresh connection to `addr`,
/// starting the schedule at `start_ns`. Unsent or unanswered requests
/// come back with status 0. Also returns the CPU time the calling
/// thread spent driving, so callers can take the generator's share out
/// of process CPU time.
pub fn drive(addr: SocketAddr, ops: &[Op], start_ns: u64, mode: Mode) -> (Vec<Outcome>, u64) {
    let cpu_start = thread_cpu_ns();
    tighten_timer_slack();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(ops.len());
    let unsent = |i: usize, at: u64| Outcome {
        op: i,
        due_ns: start_ns + ops[i].due_ns,
        sent_ns: at,
        done_ns: at,
        status: 0,
        sent: false,
        correct: false,
        recalibrated: false,
        body: None,
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => {
            let now = ft_trace::now_ns();
            let outcomes = (0..ops.len()).map(|i| unsent(i, now)).collect();
            return (outcomes, thread_cpu_ns() - cpu_start);
        }
    };
    let _ = stream.set_nodelay(true);
    stream
        .set_nonblocking(true)
        .expect("nonblocking loopback socket");
    let fd = stream.as_raw_fd();
    let mut next = 0usize;
    let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
    let mut out: Vec<u8> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut broken = false;
    let mut stopped = false;
    let mut drain_deadline = u64::MAX;
    loop {
        let now = ft_trace::now_ns();
        while !stopped && next < ops.len() && start_ns + ops[next].due_ns <= now {
            match mode {
                Mode::Open => {}
                Mode::Probe { give_up_ns } => {
                    if inflight
                        .front()
                        .is_some_and(|&(i, _)| now > start_ns + ops[i].due_ns + give_up_ns)
                    {
                        stopped = true;
                        break;
                    }
                }
            }
            out.extend_from_slice(&ops[next].request);
            inflight.push_back((next, now));
            next += 1;
        }
        if !out.is_empty() {
            match stream.write(&out) {
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => broken = true,
            }
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        let done_at = ft_trace::now_ns();
        let mut consumed = 0;
        while let Some((status, body, total)) = parse_response(&inbuf[consumed..]) {
            let Some((i, sent)) = inflight.pop_front() else {
                broken = true;
                break;
            };
            let body = &inbuf[consumed + body.start..consumed + body.end];
            let (correct, recalibrated, kept) = check(&ops[i], status, body);
            if matches!(mode, Mode::Probe { .. }) && !(200..300).contains(&status) {
                stopped = true;
            }
            outcomes.push(Outcome {
                op: i,
                due_ns: start_ns + ops[i].due_ns,
                sent_ns: sent,
                done_ns: done_at,
                status,
                sent: true,
                correct,
                recalibrated,
                body: kept,
            });
            consumed += total;
        }
        inbuf.drain(..consumed);
        let sending = !stopped && next < ops.len();
        if broken || (!sending && inflight.is_empty()) {
            break;
        }
        if !sending && drain_deadline == u64::MAX {
            drain_deadline = done_at + DRAIN_NS;
        }
        if done_at >= drain_deadline {
            break;
        }
        let timeout = if sending {
            (start_ns + ops[next].due_ns).saturating_sub(done_at)
        } else {
            drain_deadline - done_at
        };
        if timeout > 0 {
            wait(fd, !out.is_empty(), timeout);
        }
    }
    let now = ft_trace::now_ns();
    for (i, sent) in inflight {
        let mut o = unsent(i, now);
        o.sent_ns = sent;
        o.sent = true;
        outcomes.push(o);
    }
    for i in next..ops.len() {
        outcomes.push(unsent(i, now));
    }
    outcomes.sort_by_key(|o| o.op);
    (outcomes, thread_cpu_ns() - cpu_start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_and_prices() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 36\r\n\r\n{\"id\":3,\"price\":12.5,\"generation\":1}HTTP/1.1 503";
        let (status, body, total) = parse_response(raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(prices(&raw[body]), vec![12.5f64.to_bits()]);
        assert!(parse_response(&raw[total..]).is_none());
    }
}
