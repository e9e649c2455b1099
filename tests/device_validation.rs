//! The §3.1 validation experiment as an integration test: crawling the
//! same sites on different machines yields different canvas bytes but the
//! identical cross-site grouping — for *three* device profiles, not just
//! the paper's two.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::{detect, Clustering};
use canvassing_crawler::{crawl, CrawlConfig};
use canvassing_raster::DeviceProfile;
use canvassing_webgen::{Cohort, SyntheticWeb, WebConfig};

fn clustering_for(web: &SyntheticWeb, device: DeviceProfile) -> Clustering {
    let frontier = web.frontier(Cohort::Popular);
    let mut config = CrawlConfig::with_device(device);
    config.workers = 4;
    let ds = crawl(&web.network, &frontier, &config);
    let detections: Vec<_> = ds.successful().map(|(_, v)| detect(v)).collect();
    Clustering::build(detections.iter())
}

#[test]
fn three_devices_same_grouping_different_bytes() {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 5,
        scale: 0.02,
    });
    let intel = clustering_for(&web, DeviceProfile::intel_ubuntu());
    let m1 = clustering_for(&web, DeviceProfile::apple_m1());
    let nvidia = clustering_for(&web, DeviceProfile::windows_nvidia());

    // Same partition of sites on all three devices.
    let p_intel = intel.site_partition();
    assert_eq!(p_intel, m1.site_partition());
    assert_eq!(p_intel, nvidia.site_partition());

    // Canvas byte sets are pairwise different.
    let urls = |c: &Clustering| -> std::collections::BTreeSet<String> {
        c.clusters
            .iter()
            .map(|cl| cl.data_url.to_string())
            .collect()
    };
    let (ui, um, un) = (urls(&intel), urls(&m1), urls(&nvidia));
    assert_ne!(ui, um);
    assert_ne!(ui, un);
    assert_ne!(um, un);

    // Unique canvas counts agree (grouping cardinality is device-free).
    assert_eq!(intel.unique_canvases(), m1.unique_canvases());
    assert_eq!(intel.unique_canvases(), nvidia.unique_canvases());
}

#[test]
fn repeated_crawls_on_one_device_are_byte_identical() {
    let web = SyntheticWeb::generate(WebConfig {
        seed: 5,
        scale: 0.02,
    });
    let a = clustering_for(&web, DeviceProfile::intel_ubuntu());
    let b = clustering_for(&web, DeviceProfile::intel_ubuntu());
    let urls = |c: &Clustering| -> Vec<String> {
        c.clusters
            .iter()
            .map(|cl| cl.data_url.to_string())
            .collect()
    };
    assert_eq!(urls(&a), urls(&b));
}
