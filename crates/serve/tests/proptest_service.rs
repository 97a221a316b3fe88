//! Property: for ANY mix of scenes, worker counts, cache sizes, plan-cache
//! sizes and admission bounds — i.e. any concurrent
//! interleaving the service can produce — every frame delivered by the
//! service is bit-identical to a sequential direct `render` call with the
//! same request.

use proptest::prelude::*;

use mgpu_cluster::ClusterSpec;
use mgpu_serve::{Priority, QueueBounds, RenderBackend, RenderService, ServiceConfig};
use mgpu_voldata::Dataset;
use mgpu_volren::camera::Scene;
use mgpu_volren::renderer::render;
use mgpu_volren::{RenderConfig, TransferFunction};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn any_interleaving_matches_sequential_direct_renders(
        azimuth_steps in prop::collection::vec(0u32..12, 3..9),
        workers in 1usize..4,
        cache_frames in 0usize..3,
        plan_cache_plans in 0usize..3,
        queue_bound in 1usize..6,
        priority_bits in prop::collection::vec(0u32..3, 3..9),
    ) {
        let spec = ClusterSpec::accelerator_cluster(2);
        let cfg = RenderConfig::test_size(24);
        let volume = Dataset::Skull.volume(16);
        let scene_of = |step: u32| {
            Scene::orbit(&volume, step as f32 * 30.0, 15.0, TransferFunction::bone())
        };

        // Sequential ground truth, one direct render per request (duplicate
        // azimuths included: the service may serve them from cache, direct
        // renders recompute them — outputs must match either way).
        let direct: Vec<_> = azimuth_steps
            .iter()
            .map(|s| render(&spec, &volume, &scene_of(*s), &cfg).image)
            .collect();

        let service = RenderService::start(ServiceConfig {
            workers,
            cache_frames,
            plan_cache_plans,
            // A tight bound exercises the blocking submit path: the test
            // thread stalls at the bound until the workers free capacity.
            queue_bounds: QueueBounds {
                batch: queue_bound,
                normal: queue_bound + 1,
                interactive: queue_bound + 2,
            },
            start_paused: false,
        });
        let session = service.session(spec.clone(), volume.clone(), cfg.clone());
        let tickets: Vec<_> = azimuth_steps
            .iter()
            .zip(priority_bits.iter().cycle())
            .map(|(s, p)| {
                let priority = match p {
                    0 => Priority::Batch,
                    1 => Priority::Normal,
                    _ => Priority::Interactive,
                };
                session.request_with_priority(scene_of(*s), priority)
            })
            .collect();

        for (i, ticket) in tickets.into_iter().enumerate() {
            let frame = ticket.wait();
            prop_assert_eq!(
                &*frame.image,
                &direct[i],
                "frame {} (azimuth step {}) diverged under workers={} cache={} plans={} bound={}",
                i, azimuth_steps[i], workers, cache_frames, plan_cache_plans, queue_bound
            );
        }
        let report = service.shutdown();
        prop_assert_eq!(report.frames_completed, azimuth_steps.len() as u64);
        prop_assert_eq!(report.frames_failed, 0);
        prop_assert_eq!(report.admission_rejected, 0, "blocking submit never sheds");
    }
}
