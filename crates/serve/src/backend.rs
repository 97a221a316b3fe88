//! The one render-service contract: [`RenderBackend`].
//!
//! The paper's premise is that the same Map/Reduce pipeline scales
//! transparently from one GPU to a cluster. Above the renderer this crate
//! grew three similar-but-incompatible front-ends — [`RenderService`]
//! (one process, one queue), [`ShardedService`] (N in-process shards) and
//! the network client in `mgpu-net` — each with its own submit spelling,
//! ticket type and error enum, so moving a caller from in-process to
//! cross-process rendering meant rewriting it. [`RenderBackend`] collapses
//! those surfaces into one trait: `submit` / `try_submit` / blocking
//! `render`, ticket redemption, `report` and `shutdown`, with one error
//! vocabulary ([`BackendError`]) and one delivered-frame type
//! ([`BackendFrame`]). It is the only way in and out: the in-process
//! services have no submit or redeem of their own, and their workers,
//! frame caches and completion hooks all carry a `BackendFrame`. Callers
//! written against the trait run unchanged on any backend — and a single
//! generic equivalence harness proves every backend's frames
//! bit-identical to direct renders.
//!
//! Backends in this workspace:
//!
//! | backend            | crate        | scope                           | ticket          |
//! |--------------------|--------------|---------------------------------|-----------------|
//! | [`RenderService`]  | `mgpu-serve` | one process, one queue          | [`FrameTicket`] |
//! | [`ShardedService`] | `mgpu-serve` | N in-process shards             | [`FrameTicket`] |
//! | `NodePool`         | `mgpu-net`   | N servers behind a directory    | `PoolTicket`    |
//! | `RemoteBackend`    | `mgpu-net`   | one server: a `NodePool` of one | `PoolTicket`    |

use std::sync::Arc;
use std::time::Duration;

use mgpu_volren::{Image, RenderReport};

use crate::queue::AdmissionError;
use crate::{FrameError, FrameTicket, RenderService, SceneRequest, ServiceReport, ShardedService};

/// Every way a backend can refuse or fail a request — the union of the
/// in-process error types and the transport failures only remote backends
/// can produce. In-process backends never return the transport arms, so
/// callers that only ever run locally can still match exhaustively and
/// treat `Transport`/`Unsupported` as unreachable.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// Admission control shed the submission (`try_submit` path; the
    /// blocking forms wait for capacity instead).
    Admission(AdmissionError),
    /// A server-door rate limiter refused the request; retry no sooner
    /// than `retry_after`. Produced by remote backends only (in-process
    /// services have no door).
    Throttled { retry_after: Duration },
    /// The session holds too many un-redeemed tickets server-side; redeem
    /// some, then retry (remote backends only).
    TicketsFull { outstanding: u64, limit: u64 },
    /// The render itself failed (e.g. a caught render panic); a remote
    /// backend reports exactly the message an in-process one does.
    Render(FrameError),
    /// The connection to a remote backend failed (or the peer broke
    /// protocol) and the retry budget, if any, is exhausted.
    Transport(String),
    /// The request cannot be represented by this backend (e.g. a volume too
    /// large to ship over the wire). The request is wrong for this backend,
    /// not transiently unlucky — retrying cannot help.
    Unsupported(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Admission(err) => write!(f, "admission rejected: {err}"),
            BackendError::Throttled { retry_after } => {
                write!(
                    f,
                    "rate limited: retry in {:.3} s",
                    retry_after.as_secs_f64()
                )
            }
            BackendError::TicketsFull { outstanding, limit } => {
                write!(
                    f,
                    "session holds {outstanding} un-redeemed tickets (limit {limit})"
                )
            }
            BackendError::Render(err) => write!(f, "render failed: {err}"),
            BackendError::Transport(what) => write!(f, "transport failure: {what}"),
            BackendError::Unsupported(what) => write!(f, "unsupported request: {what}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<AdmissionError> for BackendError {
    fn from(err: AdmissionError) -> BackendError {
        BackendError::Admission(err)
    }
}

impl From<FrameError> for BackendError {
    fn from(err: FrameError) -> BackendError {
        BackendError::Render(err)
    }
}

/// A delivered frame in backend-neutral form. Cheap to clone; the pixels
/// are bit-identical to a direct `mgpu_volren::render` of the same request
/// on every backend (the generic equivalence harness locks this).
#[derive(Debug, Clone)]
pub struct BackendFrame {
    pub image: Arc<Image>,
    /// Served from a frame cache (no render happened for this request).
    pub from_cache: bool,
    /// Simulated (DES) frame time on the modeled cluster; zero for cache
    /// hits, which re-deliver a previously rendered frame.
    pub sim_frame: Duration,
    /// The full per-frame render report — carried by in-process backends;
    /// `None` for frames that crossed the wire (the protocol ships the
    /// simulated frame time, not the whole report).
    pub report: Option<Arc<RenderReport>>,
}

impl BackendFrame {
    /// This frame re-delivered from a frame cache: no render happened for
    /// the request, so its simulated frame time is zero.
    pub(crate) fn served_from_cache(self) -> BackendFrame {
        BackendFrame {
            from_cache: true,
            sim_frame: Duration::ZERO,
            ..self
        }
    }
}

/// The unified render-service contract: everything a caller needs to drive
/// a renderer, independent of where it runs. See the module docs for the
/// backends.
///
/// Semantics every implementation upholds:
///
/// * **Determinism** — a delivered frame is bit-identical to a direct
///   `mgpu_volren::render` call with the same request.
/// * **`submit` blocks, `try_submit` sheds** — `submit` waits out admission
///   bounds (remote backends retry within their budget), `try_submit`
///   returns [`BackendError::Admission`] immediately under overload.
/// * **Tickets redeem once** — [`RenderBackend::redeem`] consumes the
///   ticket. In-process tickets make double redemption unrepresentable
///   (the ticket type is affine); remote backends answer a typed error.
pub trait RenderBackend {
    /// Handle to one submitted frame; redeem with [`RenderBackend::redeem`].
    type Ticket;

    /// Submit one frame request, blocking while the backend is at its
    /// admission bound, and return a ticket for later redemption.
    fn submit(&self, request: SceneRequest) -> Result<Self::Ticket, BackendError>;

    /// Submit without blocking: under overload the request is shed with
    /// [`BackendError::Admission`] (or [`BackendError::Throttled`] at a
    /// remote server's door) instead of waiting.
    fn try_submit(&self, request: SceneRequest) -> Result<Self::Ticket, BackendError>;

    /// Block until a submitted frame is ready. A ticket redeems exactly
    /// once.
    fn redeem(&self, ticket: Self::Ticket) -> Result<BackendFrame, BackendError>;

    /// Render one frame, blocking until it is delivered — submit + redeem
    /// in one call.
    fn render(&self, request: SceneRequest) -> Result<BackendFrame, BackendError> {
        let ticket = self.submit(request)?;
        self.redeem(ticket)
    }

    /// Point-in-time accounting, merged over everything behind this
    /// backend (shards, nodes). Remote backends fetch it over the wire,
    /// hence the `Result`.
    fn report(&self) -> Result<ServiceReport, BackendError>;

    /// Stop this backend and return its final accounting, best-effort for
    /// remote backends. In-process services drain their queues: every job
    /// admitted before the call completes and its hook fires, but their
    /// tickets cannot be redeemed (redeeming takes the backend this
    /// consumes). Remote backends disconnect — the server keeps running
    /// for its other clients. Taking `self` makes a submit after shutdown
    /// a compile error, not a runtime one.
    fn shutdown(self) -> ServiceReport
    where
        Self: Sized;
}

impl RenderBackend for RenderService {
    type Ticket = FrameTicket;

    fn submit(&self, request: SceneRequest) -> Result<FrameTicket, BackendError> {
        Ok(self.inner.submit(request.plan_key(), request))
    }

    fn try_submit(&self, request: SceneRequest) -> Result<FrameTicket, BackendError> {
        Ok(self.inner.try_submit(request.plan_key(), request)?)
    }

    fn redeem(&self, ticket: FrameTicket) -> Result<BackendFrame, BackendError> {
        Ok(ticket.resolve()?)
    }

    fn report(&self) -> Result<ServiceReport, BackendError> {
        Ok(RenderService::report(self))
    }

    fn shutdown(self) -> ServiceReport {
        RenderService::shutdown(self)
    }
}

impl RenderBackend for ShardedService {
    type Ticket = FrameTicket;

    fn submit(&self, request: SceneRequest) -> Result<FrameTicket, BackendError> {
        let (shard, key) = self.owner(&request);
        Ok(shard.submit(key, request))
    }

    fn try_submit(&self, request: SceneRequest) -> Result<FrameTicket, BackendError> {
        let (shard, key) = self.owner(&request);
        Ok(shard.try_submit(key, request)?)
    }

    fn redeem(&self, ticket: FrameTicket) -> Result<BackendFrame, BackendError> {
        Ok(ticket.resolve()?)
    }

    fn report(&self) -> Result<ServiceReport, BackendError> {
        Ok(ShardedService::report(self))
    }

    fn shutdown(self) -> ServiceReport {
        ShardedService::shutdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Priority, QueueBounds, ServiceConfig};
    use mgpu_cluster::ClusterSpec;
    use mgpu_voldata::{Dataset, Volume};
    use mgpu_volren::camera::Scene;
    use mgpu_volren::config::RenderConfig;
    use mgpu_volren::TransferFunction;

    fn request(volume: &Volume, az: f32, priority: Priority) -> SceneRequest {
        SceneRequest {
            spec: ClusterSpec::accelerator_cluster(1),
            volume: volume.clone(),
            scene: Scene::orbit(volume, az, 10.0, TransferFunction::bone()),
            config: RenderConfig::test_size(16),
            priority,
        }
    }

    /// The same generic driver runs both in-process backends — the
    /// crate-level seed of the facade's four-backend harness.
    fn drive<B: RenderBackend>(backend: B) {
        let volume = Dataset::Skull.volume(8);
        let frame = backend
            .render(request(&volume, 30.0, Priority::Normal))
            .expect("render through the trait");
        assert!(!frame.from_cache);
        assert!(frame.report.is_some(), "local backends carry the report");
        assert!(frame.sim_frame > Duration::ZERO);

        // The repeat view resolves from the frame cache, sim time zero.
        let again = backend
            .render(request(&volume, 30.0, Priority::Normal))
            .expect("cached render");
        assert!(again.from_cache);
        assert_eq!(again.sim_frame, Duration::ZERO);
        assert_eq!(again.image, frame.image);

        let ticket = backend
            .try_submit(request(&volume, 75.0, Priority::Normal))
            .expect("try_submit under no load");
        let fresh = backend.redeem(ticket).expect("redeem");
        assert!(!fresh.from_cache);

        let report = RenderBackend::report(&backend).expect("local report");
        assert_eq!(report.frames_completed, 3);
        let end = backend.shutdown();
        assert_eq!(end.frames_completed, 3);
        assert_eq!(end.frames_failed, 0);
    }

    #[test]
    fn render_service_implements_the_contract() {
        drive(RenderService::start(ServiceConfig::default()));
    }

    #[test]
    fn sharded_service_implements_the_contract() {
        drive(ShardedService::start(2, ServiceConfig::default()));
    }

    #[test]
    fn try_submit_sheds_with_the_shared_error_type() {
        let service = RenderService::start(ServiceConfig {
            workers: 1,
            start_paused: true,
            queue_bounds: QueueBounds::uniform(1),
            cache_frames: 0,
            ..ServiceConfig::default()
        });
        let volume = Dataset::Skull.volume(8);
        let first = RenderBackend::try_submit(&service, request(&volume, 0.0, Priority::Normal))
            .expect("first fills the queue");
        match RenderBackend::try_submit(&service, request(&volume, 40.0, Priority::Normal)) {
            Err(BackendError::Admission(err)) => {
                assert_eq!(err.priority, Priority::Normal);
                assert_eq!((err.queued, err.limit), (1, 1));
            }
            other => panic!("expected admission shedding, got {other:?}"),
        }
        service.resume();
        RenderBackend::redeem(&service, first).expect("admitted frame renders");
        service.shutdown();
    }

    #[test]
    fn render_failures_surface_as_the_shared_render_error() {
        let service = RenderService::start(ServiceConfig::default());
        let volume = Dataset::Skull.volume(8);
        let mut poison = request(&volume, 0.0, Priority::Normal);
        poison.config.image = (0, 0); // render panics; the worker survives
        match RenderBackend::render(&service, poison) {
            Err(BackendError::Render(err)) => {
                assert!(err.message().contains("render panicked"), "{err}");
            }
            other => panic!("expected a render failure, got {other:?}"),
        }
        assert_eq!(service.shutdown().frames_failed, 1);
    }

    #[test]
    fn error_display_is_descriptive() {
        let shed = BackendError::Admission(AdmissionError {
            priority: Priority::Batch,
            queued: 4,
            limit: 4,
        });
        assert!(shed.to_string().contains("queue full"));
        assert!(BackendError::Throttled {
            retry_after: Duration::from_millis(250)
        }
        .to_string()
        .contains("0.250"));
        assert!(BackendError::Transport("peer vanished".into())
            .to_string()
            .contains("peer vanished"));
        assert!(BackendError::Unsupported("volume too large".into())
            .to_string()
            .contains("volume too large"));
    }
}
