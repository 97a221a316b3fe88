//! [`RemoteBackend`]: one [`crate::RenderServer`] behind the
//! [`RenderBackend`] trait — the adapter that lets code written against the
//! in-process service contract run unchanged against a TCP render node.
//!
//! The raw [`RenderClient`] mirrors the wire protocol (its own
//! `ClientError`, `NetSceneRequest`); this wrapper restores the service
//! contract: [`mgpu_serve::SceneRequest`] in, [`BackendFrame`] out, and
//! every failure folded into the shared [`BackendError`] vocabulary —
//! [`ClientError::Throttled`] keeps its exact `retry_after`,
//! [`ClientError::Admission`] restores the same `AdmissionError` the
//! server's queue produced. The pipelined client is already `&self` and
//! thread-safe, so concurrent backend calls multiplex on the one
//! connection instead of queueing behind a mutex.

use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use mgpu_serve::{BackendError, BackendFrame, RenderBackend, SceneRequest, ServiceReport};

use crate::client::{ClientConfig, ClientError, NetTicket, RenderClient};
use crate::wire::{NetFrame, NetSceneRequest};

/// Fold a wire-level failure into the shared backend vocabulary. Semantic
/// errors cross losslessly; transport and protocol failures collapse into
/// [`BackendError::Transport`] (the caller can't do anything more specific
/// with them than retry elsewhere).
pub(crate) fn backend_error(err: ClientError) -> BackendError {
    match err {
        ClientError::Admission(err) => BackendError::Admission(err),
        ClientError::Throttled { retry_after } => BackendError::Throttled { retry_after },
        ClientError::TicketsFull { outstanding, limit } => {
            BackendError::TicketsFull { outstanding, limit }
        }
        ClientError::Render(err) => BackendError::Render(err),
        ClientError::Wire(err) => BackendError::Transport(err.to_string()),
        ClientError::Draining { epoch } => BackendError::Transport(format!(
            "node is draining (directory epoch {epoch}): route elsewhere"
        )),
        ClientError::Goodbye => {
            BackendError::Transport("node drained and said goodbye".to_string())
        }
        ClientError::Protocol(what) => BackendError::Transport(what),
    }
}

/// Encode an in-process request for the wire, or explain why it can't go.
pub(crate) fn portable(request: &SceneRequest) -> Result<NetSceneRequest, BackendError> {
    NetSceneRequest::from_request(request).map_err(BackendError::Unsupported)
}

pub(crate) fn backend_frame(frame: NetFrame) -> BackendFrame {
    BackendFrame {
        image: Arc::new(frame.image),
        from_cache: frame.from_cache,
        sim_frame: frame.sim_frame,
        // The wire ships the simulated frame time, not the full report.
        report: None,
    }
}

/// How long blocking backend calls sleep between retries when the server
/// sheds for admission (the v3 server answers admission inline and never
/// parks a request, so the client polls — cheap against a loopback or LAN
/// server).
const SUBMIT_RETRY: Duration = Duration::from_millis(2);

/// One render server as a [`RenderBackend`]. Holds a single pipelined
/// connection — concurrent calls from many threads share it, each tracked
/// by its own `request_id`; see `NodePool` for many servers with failover
/// and retry budgets.
pub struct RemoteBackend {
    client: RenderClient,
}

impl RemoteBackend {
    /// Connect with default transport settings (no timeouts).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RemoteBackend, ClientError> {
        RemoteBackend::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit connect/read timeouts and payload bound.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<RemoteBackend, ClientError> {
        Ok(RemoteBackend {
            client: RenderClient::connect_with(addr, config)?,
        })
    }

    /// Shards behind the server (learned during the handshake).
    pub fn shards(&self) -> u32 {
        self.client.shards()
    }

    /// The server's node snapshot: its `net.*` metrics plus its process's
    /// `serve.*` / `volren.*`, mergeable across nodes.
    pub fn obs_snapshot(&self) -> Result<mgpu_obs::Snapshot, ClientError> {
        self.client.stats().map(|stats| stats.obs)
    }

    /// The server's most recent completed request traces (newest first).
    pub fn traces(&self, max: u32) -> Result<Vec<mgpu_obs::CompletedTrace>, ClientError> {
        self.client.traces(max)
    }
}

impl RenderBackend for RemoteBackend {
    type Ticket = NetTicket;

    /// Blocking submit: mirrors the in-process contract by waiting out the
    /// server's admission bound (polling) and its rate-limiter door
    /// (sleeping exactly the server's `retry_after`). A full per-session
    /// ticket table is NOT waited out — only this caller's own redemptions
    /// can free tickets, so polling would livelock a single-threaded
    /// client; [`BackendError::TicketsFull`] is returned instead.
    fn submit(&self, request: SceneRequest) -> Result<NetTicket, BackendError> {
        let net = portable(&request)?;
        loop {
            match self.client.submit(&net) {
                Ok(ticket) => return Ok(ticket),
                Err(ClientError::Admission(_)) => std::thread::sleep(SUBMIT_RETRY),
                Err(ClientError::Throttled { retry_after }) => std::thread::sleep(retry_after),
                Err(err) => return Err(backend_error(err)),
            }
        }
    }

    fn try_submit(&self, request: SceneRequest) -> Result<NetTicket, BackendError> {
        let net = portable(&request)?;
        self.client.submit(&net).map_err(backend_error)
    }

    fn redeem(&self, ticket: NetTicket) -> Result<BackendFrame, BackendError> {
        self.client
            .redeem(ticket)
            .map(backend_frame)
            .map_err(backend_error)
    }

    /// Blocking render: under wire v3 the server answers admission and
    /// throttling inline (it never blocks the connection), so the blocking
    /// contract is restored client-side — admission sheds are polled out
    /// like [`RemoteBackend::submit`] and the rate-limiter door sleeps
    /// exactly the server's `retry_after`.
    fn render(&self, request: SceneRequest) -> Result<BackendFrame, BackendError> {
        let net = portable(&request)?;
        loop {
            match self.client.render(&net) {
                Ok(frame) => return Ok(backend_frame(frame)),
                Err(ClientError::Admission(_)) => std::thread::sleep(SUBMIT_RETRY),
                Err(ClientError::Throttled { retry_after }) => std::thread::sleep(retry_after),
                Err(err) => return Err(backend_error(err)),
            }
        }
    }

    fn report(&self) -> Result<ServiceReport, BackendError> {
        self.client
            .stats()
            .map(|stats| stats.merged())
            .map_err(backend_error)
    }

    /// Disconnect, returning the server's latest merged report
    /// (best-effort: an unreachable server yields an empty report). The
    /// server itself keeps running for its other clients.
    fn shutdown(self) -> ServiceReport {
        self.report().unwrap_or_default()
    }
}
