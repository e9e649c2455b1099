//! Defense lab (§5.3): run the same fingerprinting script under every
//! modeled browser defense and show what the fingerprinter's
//! double-render stability check concludes.
//!
//! The punchline mirrors the paper's footnote 7: per-render noise is
//! detected by the check (the fingerprinter simply discards the canvas
//! component), while per-session noise passes the check — yet still
//! poisons cross-site grouping because the noise differs per session.
//!
//! ```sh
//! cargo run --example defense_lab
//! ```

// Tests/tools exercise failure paths where panicking on a broken
// invariant is the correct outcome.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use canvassing_browser::{Browser, DefenseMode};
use canvassing_net::{Network, PageResource, Resource, ScriptRef, ScriptResource, Url};
use canvassing_raster::DeviceProfile;

/// A FingerprintJS-style script: double-render check, then report.
const FINGERPRINTER: &str = r##"
fn render() {
    let c = document.createElement("canvas");
    c.width = 220; c.height = 48;
    let x = c.getContext("2d");
    x.textBaseline = "top";
    x.fillStyle = "#069";
    x.font = "14px Arial";
    x.fillText("stability probe \u{1F603}", 2, 4);
    x.fillStyle = "rgba(255, 102, 0, 0.7)";
    x.fillRect(10, 24, 120, 18);
    return c.toDataURL();
}
let first = render();
let second = render();
if (first == second) {
    "canvas:" + first.substring(30, 46);
} else {
    "canvas:unstable";
}
"##;

fn build_network() -> (Network, Url) {
    let mut network = Network::new();
    let script_url = Url::https("fp.vendor.example", "/agent.js");
    network.host(
        &script_url,
        Resource::Script(ScriptResource {
            source: FINGERPRINTER.to_string(),
            label: "stability-prober".into(),
        }),
    );
    let page = Url::https("site.example", "/");
    network.host(
        &page,
        Resource::Page(PageResource {
            scripts: vec![ScriptRef::External(script_url)],
            consent_banner: false,
            bot_check: false,
        }),
    );
    (network, page)
}

fn run(defense: DefenseMode) -> (bool, Vec<String>) {
    let (network, page) = build_network();
    let mut browser = Browser::new(DeviceProfile::intel_ubuntu());
    browser.defense = defense;
    let visit = browser.visit(&network, &page).expect("visit");
    let urls: Vec<String> = visit
        .extractions
        .iter()
        .map(|e| e.data_url.to_string())
        .collect();
    let stable = urls.len() >= 2 && urls[0] == urls[1];
    (stable, urls)
}

fn main() {
    println!(
        "{:<42} {:>18} {:>22}",
        "defense", "check says stable?", "fingerprint usable?"
    );

    let cases: [(&str, DefenseMode); 5] = [
        ("none (default browser)", DefenseMode::None),
        ("canvas blocking (Tor-style)", DefenseMode::Block),
        (
            "per-render noise (Brave/extension-style)",
            DefenseMode::RandomizePerRender { seed: 7 },
        ),
        (
            "per-session noise (Firefox-style), session A",
            DefenseMode::RandomizePerSession { seed: 7 },
        ),
        (
            "per-session noise (Firefox-style), session B",
            DefenseMode::RandomizePerSession { seed: 8 },
        ),
    ];

    let mut session_canvases = Vec::new();
    for (name, defense) in cases {
        let (stable, urls) = run(defense);
        // "Usable" from the fingerprinter's perspective: stable and not a
        // blocked constant.
        let blocked = urls.iter().all(|u| u == canvassing_dom::BLOCKED_DATA_URL);
        let usable = stable && !blocked;
        println!(
            "{:<42} {:>18} {:>22}",
            name,
            if stable { "yes" } else { "no → discard" },
            if usable { "yes" } else { "no" },
        );
        if matches!(defense, DefenseMode::RandomizePerSession { .. }) {
            session_canvases.push(urls[0].clone());
        }
    }

    // The subtle point: per-session noise passes the stability check but
    // the canvas differs *across sessions*, breaking re-identification.
    assert_ne!(session_canvases[0], session_canvases[1]);
    println!(
        "\nper-session noise passed the check in both sessions, but the two \
         sessions produced different canvases — re-identification across \
         visits fails anyway ✓"
    );
}
