//! The §3.1 validation experiment as an integration test: crawling the
//! same sites on different machines yields different canvas bytes but the
//! identical cross-site grouping — for *three* device profiles, not just
//! the paper's two.

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing::{detect, Clustering};
use canvassing_crawler::{crawl, CrawlConfig};
use canvassing_dom::Document;
use canvassing_raster::{content_hash, DeviceProfile};
use canvassing_vendors::{all_vendors, scripts};
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

/// The device pins: FNV-1a of every data URL (each followed by a
/// newline) that the modeled scripts extract on a fresh `Document` per
/// script: each vendor's script in Table 1 order (FingerprintJS in both
/// builds, Imperva with one fixed site token), then the long-tail
/// `generic_fingerprinter(0..8)` bodies. The study's digests pin only the
/// Intel profile, and the M1 crawl reaches the report only through its
/// grouping, so these are the pins on the M1 and NVIDIA bytes of the
/// scripts the study serves.
const DEVICE_PINS: [(&str, u64); 3] = [
    ("intel-ubuntu-22.04", 0x3faa8390fecadc98),
    ("apple-m1-macos", 0x2ee78f7a304a1ff1),
    ("windows-nvidia", 0x33151ccbfd43682d),
];

fn pinned_script_bodies() -> Vec<String> {
    let mut bodies = Vec::new();
    for vendor in all_vendors() {
        bodies.push(scripts::source(vendor.id, "pinned-shop", false));
        if vendor.id == canvassing_vendors::VendorId::FingerprintJs {
            bodies.push(scripts::source(vendor.id, "pinned-shop", true));
        }
    }
    bodies.extend((0..8).map(scripts::generic_fingerprinter));
    bodies
}

#[test]
fn script_canvases_are_pinned_per_device() {
    let bodies = pinned_script_bodies();
    for (device, (id, pin)) in [
        DeviceProfile::intel_ubuntu(),
        DeviceProfile::apple_m1(),
        DeviceProfile::windows_nvidia(),
    ]
    .into_iter()
    .zip(DEVICE_PINS)
    {
        assert_eq!(device.id, id);
        let mut urls = String::new();
        let mut extractions = 0;
        for body in &bodies {
            let mut doc = Document::new(device.clone());
            canvassing_script::eval(body, &mut doc).expect("modeled script runs");
            for e in doc.extractions() {
                urls += &e.data_url;
                urls.push('\n');
                extractions += 1;
            }
        }
        assert!(
            extractions >= bodies.len(),
            "{id}: {extractions} extractions"
        );
        let digest = content_hash(urls.as_bytes());
        assert_eq!(digest, pin, "{id}: canvas digest {digest:#018x}");
    }
}
