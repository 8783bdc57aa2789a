//! What the router gets from the shared epoll reactor, over real
//! sockets: pipelined bursts come back in request order, malformed
//! bytes get the reactor's JSON `400` and a close, idle keep-alive
//! clients are reaped after `keep_alive_timeout`, and shutdown does not
//! wait for an idle client.

use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_router::{Router, RouterConfig, RouterHandle};
use ft_server::{Server, ServerHandle};
use serde::{map_get, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One node behind one router.
struct Fleet {
    node: (ServerHandle, JoinHandle<()>),
    router: RouterHandle,
    router_join: JoinHandle<()>,
}

impl Fleet {
    fn spawn(config: RouterConfig) -> Self {
        let node = Server::spawn("127.0.0.1:0", Arc::new(CampaignRegistry::new())).expect("node");
        let (router, router_join) = Router::bind("127.0.0.1:0", vec![node.0.addr()], config)
            .expect("bind router")
            .spawn()
            .expect("spawn router");
        Self {
            node,
            router,
            router_join,
        }
    }

    fn teardown(self) {
        self.router.shutdown();
        self.router_join.join().expect("router thread");
        self.node.0.shutdown();
        self.node.1.join().expect("node thread");
    }
}

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|_| panic!("not JSON: {body}"))
}

fn get<'v>(value: &'v Value, key: &str) -> &'v Value {
    map_get(value.as_map().expect("object"), key).unwrap_or_else(|_| panic!("missing {key}"))
}

/// Read one response off a keep-alive stream: status and body.
fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        if header.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn deadline_spec() -> String {
    let problem = DeadlineProblem::from_market(
        10,
        2.0,
        6,
        &ConstantRate::new(80.0),
        PriceGrid::new(0, 12),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 300.0 },
    );
    format!(
        "{{\"kind\":\"deadline\",\"problem\":{}}}",
        serde_json::to_string(&problem.to_value()).expect("problem json")
    )
}

#[test]
fn pipelined_burst_through_the_router_comes_back_in_order() {
    let fleet = Fleet::spawn(RouterConfig {
        workers: 4,
        ..RouterConfig::default()
    });
    let addr = fleet.router.addr();
    let spec = deadline_spec();
    let ids: Vec<u64> = (0..3)
        .map(|_| {
            let (status, body) =
                ft_server::client::request(addr, "POST", "/campaigns", Some(&spec))
                    .expect("create");
            assert_eq!(status, 201, "{body}");
            get(&json(&body), "id").as_num().expect("numeric id") as u64
        })
        .collect();

    // Proxied reports of known campaigns, interleaved with unknown ids
    // and the router's own `/healthz`: with four workers the requests
    // run concurrently, so any reordering shows up as a wrong status or
    // a wrong id at some position.
    let expected: Vec<Option<u64>> = (0..24)
        .map(|k| match k % 4 {
            0 | 2 => Some(ids[k % 3]),
            1 => Some(900_000 + k as u64),
            _ => None,
        })
        .collect();
    let mut burst = String::new();
    for want in &expected {
        let path = match want {
            Some(id) => format!("/campaigns/{id}"),
            None => "/healthz".to_string(),
        };
        burst.push_str(&format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"));
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(burst.as_bytes()).expect("write burst");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    for (k, want) in expected.iter().enumerate() {
        let (status, body) = read_response(&mut reader);
        match want {
            Some(id) if ids.contains(id) => {
                assert_eq!(status, 200, "response {k}: {body}");
                assert_eq!(get(&json(&body), "id").as_num(), Some(*id as f64), "{k}");
            }
            Some(id) => {
                assert_eq!(status, 404, "response {k}: {body}");
                assert!(body.contains(&id.to_string()), "response {k}: {body}");
            }
            None => {
                assert_eq!(status, 200, "response {k}: {body}");
                assert!(body.contains("\"status\""), "response {k}: {body}");
            }
        }
    }
    fleet.teardown();
}

#[test]
fn malformed_bytes_get_a_json_400_and_a_close() {
    let fleet = Fleet::spawn(RouterConfig::default());
    let mut stream = TcpStream::connect(fleet.router.addr()).expect("connect");
    stream.write_all(b"garbage\r\n\r\n").expect("write garbage");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    // `read_to_end` returns only once the router closes the connection.
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("answer, then close");
    let (status, body) = read_response(&mut &raw[..]);
    assert_eq!(status, 400);
    assert_eq!(get(&json(&body), "error").as_str(), Some("bad_request"));
    fleet.teardown();
}

#[test]
fn idle_keep_alive_client_is_reaped_after_the_timeout() {
    let keep_alive_timeout = Duration::from_millis(300);
    let fleet = Fleet::spawn(RouterConfig {
        keep_alive_timeout,
        ..RouterConfig::default()
    });
    let addr = fleet.router.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    assert_eq!(read_response(&mut reader).0, 200);

    // Now silent: the router drops the connection without an answer.
    let idle_since = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("closed by the router");
    assert!(rest.is_empty(), "unexpected bytes: {rest:?}");
    let idle = idle_since.elapsed();
    assert!(
        idle >= keep_alive_timeout / 2 && idle < Duration::from_secs(3),
        "idle connection closed after {idle:?}, timeout {keep_alive_timeout:?}"
    );

    // The router's own loop instruments saw it.
    let (status, body) =
        ft_server::client::request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let metrics = json(&body);
    assert!(
        get(&metrics, "ft_router_connections_accepted_total")
            .as_num()
            .expect("counter")
            >= 2.0
    );
    assert!(get(get(&metrics, "ft_router_queue_wait_ns"), "count").as_num() >= Some(2.0));
    fleet.teardown();
}

#[test]
fn shutdown_returns_promptly_with_an_idle_client_connected() {
    let fleet = Fleet::spawn(RouterConfig::default());
    let addr: SocketAddr = fleet.router.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let mut reader = BufReader::new(stream);
    assert_eq!(read_response(&mut reader).0, 200);

    // The client stays connected and idle, well inside the 5 s
    // keep-alive window.
    let started = Instant::now();
    fleet.router.shutdown();
    fleet.router_join.join().expect("router thread");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "router shutdown waited {:?} on an idle client",
        started.elapsed()
    );
    drop(reader);
    fleet.node.0.shutdown();
    fleet.node.1.join().expect("node thread");
}
