//! The router's serving loop: the nodes' epoll reactor
//! ([`ft_server::Service`]), serving [`proxy::handle`].
//!
//! Each reactor worker owns one keep-alive [`Connections`] set to the
//! backends, so backend connection state is per-thread and needs no
//! locking. As on a node, a keep-alive client may pipeline requests:
//! they run concurrently on the workers and their responses come back
//! in request order; a request that finds the ready-queue full is
//! answered `503 server_busy`.

use crate::fleet::Fleet;
use crate::proxy::{self, Connections};
use ft_server::http::{Request, Response};
use ft_server::{LoopTelemetry, ServerConfig, ServerHandle, Service};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Parsed requests allowed to wait for a free worker before the router
/// answers `503`. Deep enough that a host stall of a few hundred ms at
/// a few thousand requests a second shows up as latency, not as
/// rejections: the router is a pass-through tier, and the nodes behind
/// it shed load themselves.
const QUEUE_DEPTH: usize = 4096;

#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Reactor worker threads. Each holds one keep-alive connection
    /// per backend, so the fleet sees at most `workers × nodes`
    /// proxy connections.
    pub workers: usize,
    /// Virtual points per node on the placement ring.
    pub replicas: usize,
    /// Idle keep-alive client connections are dropped after this long
    /// between requests.
    pub keep_alive_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 16,
            replicas: crate::ring::DEFAULT_REPLICAS,
            keep_alive_timeout: Duration::from_secs(5),
        }
    }
}

pub struct Router {
    listener: TcpListener,
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    config: RouterConfig,
}

/// Handle returned by [`Router::spawn`]; dropping it does **not** stop
/// the router — call [`RouterHandle::shutdown`].
pub struct RouterHandle {
    server: ServerHandle,
    fleet: Arc<Fleet>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Stop accepting, answer what is already parsed, and close idle
    /// client connections. Idempotent.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

impl Router {
    pub fn bind(addr: &str, backends: Vec<SocketAddr>, config: RouterConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let fleet = Arc::new(Fleet::new(backends, config.replicas));
        Ok(Self {
            listener,
            addr,
            fleet,
            config,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Serve until [`RouterHandle::shutdown`]; returns the handle and
    /// the serving thread, which exits once the reactor has drained.
    pub fn spawn(self) -> io::Result<(RouterHandle, std::thread::JoinHandle<()>)> {
        let config = ServerConfig {
            workers: self.config.workers,
            queue_depth: QUEUE_DEPTH,
            keep_alive_timeout: self.config.keep_alive_timeout,
            ..ServerConfig::default()
        };
        let (server, join) =
            ft_server::spawn_service(self.listener, Arc::clone(&self.fleet), config)?;
        let handle = RouterHandle {
            server,
            fleet: self.fleet,
        };
        Ok((handle, join))
    }

    /// Serve until the process exits (the binary's entry point).
    pub fn serve(self) -> io::Result<()> {
        let (_, join) = self.spawn()?;
        join.join()
            .map_err(|_| io::Error::other("router serving loop panicked"))
    }
}

impl Service for Fleet {
    type Worker = Connections;

    fn worker(&self) -> Connections {
        Connections::new(self.backends())
    }

    fn handle(&self, conns: &mut Connections, request: &Request, _: Duration) -> Response {
        proxy::handle(self, conns, request)
    }

    fn telemetry(&self) -> &LoopTelemetry {
        &self.telemetry.serving
    }
}
