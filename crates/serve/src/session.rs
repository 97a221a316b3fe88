//! Client sessions: a handle bound to one (cluster, volume, config) that
//! submits frames for that scene family — the "user orbiting a dataset"
//! abstraction, generic over any [`RenderBackend`]. The same session code
//! drives a local [`crate::RenderService`], a [`crate::ShardedService`], or
//! the remote backends in `mgpu-net`; all sessions share whatever queue,
//! workers and caches sit behind the backend, so two sessions over the same
//! volume batch and cache-share naturally.

use std::sync::atomic::{AtomicU64, Ordering};

use mgpu_cluster::ClusterSpec;
use mgpu_voldata::Volume;
use mgpu_volren::camera::Scene;
use mgpu_volren::config::RenderConfig;
use mgpu_volren::TransferFunction;

use crate::backend::{BackendError, BackendFrame, RenderBackend};
use crate::queue::Priority;
use crate::SceneRequest;

/// A client's view of a backend, pre-bound to cluster + volume + config.
/// Obtained from [`RenderBackend::session`]; borrows the backend, so the
/// backend cannot be shut down while sessions are still live
/// (use-after-shutdown is a compile error, not a runtime panic).
pub struct SceneSession<'a, B: RenderBackend + ?Sized> {
    backend: &'a B,
    spec: ClusterSpec,
    volume: Volume,
    config: RenderConfig,
    priority: Priority,
    submitted: AtomicU64,
}

/// A submitted frame bound to the backend that issued it: redeem with
/// [`SessionTicket::wait`] (panics on failure) or
/// [`SessionTicket::wait_result`].
pub struct SessionTicket<'a, B: RenderBackend + ?Sized> {
    backend: &'a B,
    ticket: B::Ticket,
}

impl<'a, B: RenderBackend + ?Sized> SessionTicket<'a, B> {
    /// Block until the frame is delivered; panics with the backend's error
    /// on failure (see [`SessionTicket::wait_result`]).
    pub fn wait(self) -> BackendFrame {
        match self.wait_result() {
            Ok(frame) => frame,
            Err(err) => panic!("render backend failed a session frame: {err}"),
        }
    }

    /// Block until the frame resolves, returning the failure instead of
    /// panicking.
    pub fn wait_result(self) -> Result<BackendFrame, BackendError> {
        self.backend.redeem(self.ticket)
    }
}

impl<'a, B: RenderBackend + ?Sized> SceneSession<'a, B> {
    /// Bind a session over any backend (the trait's
    /// [`RenderBackend::session`] is the usual spelling).
    pub fn over(
        backend: &'a B,
        spec: ClusterSpec,
        volume: Volume,
        config: RenderConfig,
    ) -> SceneSession<'a, B> {
        SceneSession {
            backend,
            spec,
            volume,
            config,
            priority: Priority::Normal,
            submitted: AtomicU64::new(0),
        }
    }

    /// Default priority for subsequent requests.
    pub fn with_priority(mut self, priority: Priority) -> SceneSession<'a, B> {
        self.priority = priority;
        self
    }

    /// Submit one frame of this session's volume under the given scene
    /// (blocking at the admission bound — see [`RenderBackend::submit`]).
    /// Panics on submission failure; use [`SceneSession::try_request`] for
    /// the non-panicking, non-blocking form.
    pub fn request(&self, scene: Scene) -> SessionTicket<'a, B> {
        self.request_with_priority(scene, self.priority)
    }

    pub fn request_with_priority(&self, scene: Scene, priority: Priority) -> SessionTicket<'a, B> {
        match self.backend.submit(self.request_for(scene, priority)) {
            Ok(ticket) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                SessionTicket {
                    backend: self.backend,
                    ticket,
                }
            }
            Err(err) => panic!("render backend refused a session submit: {err}"),
        }
    }

    /// Non-blocking submit: sheds with [`BackendError::Admission`] (or a
    /// remote door's [`BackendError::Throttled`]) when the backend is at
    /// its bound.
    pub fn try_request(&self, scene: Scene) -> Result<SessionTicket<'a, B>, BackendError> {
        self.try_request_with_priority(scene, self.priority)
    }

    pub fn try_request_with_priority(
        &self,
        scene: Scene,
        priority: Priority,
    ) -> Result<SessionTicket<'a, B>, BackendError> {
        let ticket = self.backend.try_submit(self.request_for(scene, priority))?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(SessionTicket {
            backend: self.backend,
            ticket,
        })
    }

    /// Render one frame synchronously (submit + redeem in one call).
    pub fn render(&self, scene: Scene) -> Result<BackendFrame, BackendError> {
        let frame = self
            .backend
            .render(self.request_for(scene, self.priority))?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(frame)
    }

    fn request_for(&self, scene: Scene, priority: Priority) -> SceneRequest {
        SceneRequest {
            spec: self.spec.clone(),
            volume: self.volume.clone(),
            scene,
            config: self.config.clone(),
            priority,
        }
    }

    /// Convenience: orbit this session's volume (see [`Scene::orbit`]).
    pub fn request_orbit(
        &self,
        azimuth_deg: f32,
        elevation_deg: f32,
        transfer: TransferFunction,
    ) -> SessionTicket<'a, B> {
        self.request(Scene::orbit(
            &self.volume,
            azimuth_deg,
            elevation_deg,
            transfer,
        ))
    }

    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    pub fn config(&self) -> &RenderConfig {
        &self.config
    }

    /// Frames this session has submitted so far.
    pub fn frames_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }
}
