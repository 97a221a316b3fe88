//! The seam between the wire's vocabulary and the service contract's, and
//! the name [`RemoteBackend`] for the one-server case.
//!
//! The pool's crate-private connections speak the wire protocol (its own
//! `ClientError`, [`NetSceneRequest`]); the three conversions here
//! restore the service contract for [`NodePool`]:
//! [`mgpu_serve::SceneRequest`] in, [`BackendFrame`] out, and every
//! failure folded into the shared [`BackendError`] vocabulary — a node's
//! refusal crosses as the very `BackendError` it names (a throttle with
//! its exact `retry_after`, a shed with the `AdmissionError` the server's
//! queue produced).
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

/// Fold a connection's failure into the shared backend vocabulary. A
/// refusal is already the caller's [`BackendError`]; a lost connection,
/// a drain and a `GOODBYE` are [`BackendError::Transport`] (the caller
/// can't do anything more specific with them than retry elsewhere).
pub(crate) fn backend_error(err: ClientError) -> BackendError {
    match err {
        ClientError::Refused(err) => err,
        ClientError::Lost(what) => BackendError::Transport(what),
        ClientError::Draining { epoch } => BackendError::Transport(format!(
            "node is draining (directory epoch {epoch}): route elsewhere"
        )),
        ClientError::Goodbye => {
            BackendError::Transport("node drained and said goodbye".to_string())
        }
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

#[cfg(test)]
mod tests {
    //! What a `NodePool` caller receives for every refusal a node can send
    //! and every transport or protocol fault: the `BackendError` variant
    //! and its exact message, pinned row by row against a scripted node.

    use super::*;
    use std::io::Write;
    use std::net::{SocketAddr, TcpListener};
    use std::time::Duration;

    use mgpu_cluster::ClusterSpec;
    use mgpu_serve::{AdmissionError, FrameError, Priority, RenderBackend};
    use mgpu_voldata::Dataset;
    use mgpu_volren::camera::Scene;
    use mgpu_volren::{RenderConfig, TransferFunction};

    use crate::client::ClientConfig;
    use crate::pool::{Directory, NodePoolConfig};
    use crate::wire::tests::{frame_bytes, read_frame};
    use crate::wire::{Pong, Reply, Request, TicketsFull, UnsupportedVersion, DEFAULT_MAX_PAYLOAD};

    /// What the scripted node does after the `PING` handshake, to the
    /// request the caller sends.
    enum Script {
        /// Answer the request under its own id.
        Reply(Reply),
        /// Send an unsolicited frame under id 0: a verdict on the connection.
        Verdict(Reply),
        /// Write these bytes, built from the request's id, and close.
        Bytes(fn(u64) -> Vec<u8>),
        /// Close the connection at a frame boundary.
        Close,
        /// Answer nothing: the caller's read timeout expires.
        Hold,
        /// Answer the handshake's `PING` with another token.
        BadPong,
        /// Listen on nothing: the dial is refused.
        Refuse,
    }

    /// The request every row sends.
    fn request() -> SceneRequest {
        let volume = Dataset::Skull.volume(8);
        SceneRequest {
            spec: ClusterSpec::accelerator_cluster(1),
            scene: Scene::orbit(&volume, 0.0, 0.0, TransferFunction::bone()),
            volume,
            config: RenderConfig::test_size(8),
            priority: Priority::Normal,
        }
    }

    /// Run `script` on a node of its own, and return what a one-node pool
    /// with one attempt hands the caller of `try_submit`.
    fn caller_sees(script: Script) -> BackendError {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr: SocketAddr = listener.local_addr().expect("bound address");
        let node = match script {
            Script::Refuse => {
                drop(listener);
                None
            }
            script => Some(std::thread::spawn(move || {
                let (mut socket, _) = listener.accept().expect("accept");
                let (tag, id, payload) =
                    read_frame(&mut socket, DEFAULT_MAX_PAYLOAD).expect("handshake");
                let Ok(Request::Ping(token)) = Request::decode(tag, &payload) else {
                    panic!("the handshake is a PING");
                };
                let token = if matches!(script, Script::BadPong) {
                    1
                } else {
                    token
                };
                let pong = Reply::Pong(Pong { token, shards: 1 });
                socket.write_all(&pong.framed(id)).expect("pong");
                if !matches!(script, Script::BadPong) {
                    let (_, id, _) =
                        read_frame(&mut socket, DEFAULT_MAX_PAYLOAD).expect("the request");
                    let bytes = match script {
                        Script::Reply(reply) => reply.framed(id),
                        Script::Verdict(reply) => reply.framed(0),
                        Script::Bytes(bytes) => {
                            // Written, then closed: a cut frame ends there.
                            socket.write_all(&bytes(id)).expect("the scripted bytes");
                            return;
                        }
                        Script::Close => return,
                        _ => Vec::new(),
                    };
                    socket.write_all(&bytes).expect("the scripted bytes");
                }
                // Hold the connection until the caller lets go of it.
                let _ = read_frame(&mut socket, DEFAULT_MAX_PAYLOAD);
            })),
        };
        let client = ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        };
        let config = NodePoolConfig {
            attempts: 1,
            client,
        };
        let pool = NodePool::new(Directory::new(vec![addr]).expect("one node"), config);
        let seen = pool
            .try_submit(request())
            .expect_err("every row is a refusal or a fault");
        drop(pool);
        if let Some(node) = node {
            node.join().expect("the scripted node");
        }
        seen
    }

    #[test]
    fn every_refusal_and_fault_reaches_the_caller_as_its_pinned_backend_error() {
        let shed = AdmissionError {
            priority: Priority::Normal,
            queued: 4,
            limit: 4,
        };
        let transport = |what: &str| BackendError::Transport(what.to_string());
        let rows = [
            (
                "admission shed",
                Script::Reply(Reply::Rejected(shed)),
                BackendError::Admission(shed),
            ),
            (
                "throttled",
                Script::Reply(Reply::Throttled(Duration::from_millis(7500))),
                BackendError::Throttled {
                    retry_after: Duration::from_millis(7500),
                },
            ),
            (
                "tickets full",
                Script::Reply(Reply::TicketsFull(TicketsFull {
                    outstanding: 3,
                    limit: 3,
                })),
                BackendError::TicketsFull {
                    outstanding: 3,
                    limit: 3,
                },
            ),
            (
                "render failed",
                Script::Reply(Reply::Failed("the render panicked".into())),
                BackendError::Render(FrameError::new("the render panicked")),
            ),
            (
                "bad request under its id",
                Script::Reply(Reply::BadRequest("a 0×8 image".into())),
                BackendError::Unsupported("a 0×8 image".into()),
            ),
            (
                "draining",
                Script::Reply(Reply::Draining(7)),
                transport("node is draining (directory epoch 7): route elsewhere"),
            ),
            (
                "goodbye",
                Script::Verdict(Reply::Goodbye),
                transport("node drained and said goodbye"),
            ),
            (
                "bad request under id 0",
                Script::Verdict(Reply::BadRequest("unframable input".into())),
                transport("server rejected request: unframable input"),
            ),
            (
                "unsupported version",
                Script::Verdict(Reply::UnsupportedVersion(UnsupportedVersion {
                    got: 4,
                    want: 5,
                })),
                transport("server speaks wire protocol v5, this client sent v4"),
            ),
            (
                "an unsolicited reply",
                Script::Verdict(Reply::Submitted(9)),
                transport("unsolicited Submitted(9)"),
            ),
            (
                "a reply of another kind",
                Script::Reply(Reply::Pong(Pong {
                    token: 1,
                    shards: 1,
                })),
                transport("the server answered with a reply of another kind"),
            ),
            (
                "connection closed",
                Script::Close,
                transport("connection closed"),
            ),
            (
                "bad magic",
                Script::Bytes(|id| {
                    let mut bytes = Reply::Submitted(9).framed(id);
                    bytes[0] ^= 0xFF;
                    bytes
                }),
                transport("bad frame magic 0x555047b2 (want 0x5550474d)"),
            ),
            (
                "a payload that does not decode",
                Script::Bytes(|id| frame_bytes(0x83, id, &[1, 2, 3])),
                transport("truncated payload: needed 8 bytes, have 3"),
            ),
            (
                "closed inside a frame",
                Script::Bytes(|id| Reply::Submitted(9).framed(id)[..10].to_vec()),
                transport("socket error: unexpected end of file"),
            ),
            (
                "read timeout",
                Script::Hold,
                transport("socket error: operation would block"),
            ),
            (
                "pong of another token",
                Script::BadPong,
                transport("pong echoed 0x1, expected 0x6d677075"),
            ),
            (
                "dial refused",
                Script::Refuse,
                transport("socket error: connection refused"),
            ),
        ];
        for (row, script, want) in rows {
            assert_eq!(caller_sees(script), want, "{row}");
        }
    }
}
