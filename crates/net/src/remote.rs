//! The seam between the wire's vocabulary and the service contract's, and
//! the name [`RemoteBackend`] for the one-server case.
//!
//! The pool's crate-private connections speak the wire protocol (its own
//! [`ClientError`], [`NetSceneRequest`]); the three conversions here
//! restore the service contract for [`NodePool`]:
//! [`mgpu_serve::SceneRequest`] in, [`BackendFrame`] out, and every
//! failure folded into the shared [`BackendError`] vocabulary —
//! [`ClientError::Throttled`] keeps its exact `retry_after`,
//! [`ClientError::Admission`] restores the same `AdmissionError` the
//! server's queue produced.
//!
//! There is no separate one-server backend: a [`RemoteBackend`] *is* a
//! one-node [`NodePool`] ([`NodePool::connect`]), so the N = 1 case shares
//! the pool's retry budget, its ticket type and its zero-loss redemption —
//! a ticket whose connection died re-dials and re-renders.

use std::sync::Arc;

use mgpu_serve::{BackendError, BackendFrame, SceneRequest};

use crate::client::ClientError;
use crate::pool::NodePool;
use crate::wire::{NetFrame, NetSceneRequest};

/// Fold a wire-level failure into the shared backend vocabulary. Semantic
/// errors cross losslessly, a request the server refused as malformed is
/// [`BackendError::Unsupported`]; transport and protocol failures collapse into
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
        // The server refused the request itself; any node would.
        ClientError::BadRequest(what) => BackendError::Unsupported(what),
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

/// One render server behind [`RenderBackend`](mgpu_serve::RenderBackend):
/// a [`NodePool`] of one. Build it with [`NodePool::connect`] /
/// [`NodePool::connect_with`].
pub type RemoteBackend = NodePool;
