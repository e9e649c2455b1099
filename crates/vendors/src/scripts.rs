//! canvascript source for each vendor's fingerprinting script.
//!
//! Each generator returns deterministic source text. Identical source ⇒
//! identical canvases on one device, which is the invariant the paper's
//! clustering exploits. Imperva is the deliberate exception: its script
//! embeds a per-site token, so every deployment renders a unique canvas
//! (§4.3.2) and grouping-by-canvas cannot find its customers.

use crate::VendorId;

/// Returns the vendor's script source. `site_token` is a word-like,
/// per-site string (letters and hyphens); only Imperva's script uses it.
/// `commercial` selects the paid FingerprintJS variant, which renders the
/// *same* canvases as the open-source build but probes extra surfaces and
/// carries different source text (the paper distinguishes the two by URL
/// and script content, not by canvas).
pub fn source(id: VendorId, site_token: &str, commercial: bool) -> String {
    match id {
        VendorId::Akamai => AKAMAI.to_string(),
        VendorId::FingerprintJs => {
            if commercial {
                format!("{FPJS_HEADER_PRO}{FPJS_CANVASES}{FPJS_PRO_EXTRAS}{FPJS_DRIVER}")
            } else {
                format!("{FPJS_HEADER_OSS}{FPJS_CANVASES}{FPJS_DRIVER}")
            }
        }
        VendorId::MailRu => MAILRU.to_string(),
        VendorId::FingerprintJsLegacy => FPJS_LEGACY.to_string(),
        VendorId::Imperva => imperva(site_token),
        VendorId::AwsWaf => AWS_WAF.to_string(),
        VendorId::InsurAds => INSURADS.to_string(),
        VendorId::Signifyd => SIGNIFYD.to_string(),
        VendorId::PerimeterX => PERIMETERX.to_string(),
        VendorId::SiftScience => SIFT.to_string(),
        VendorId::Shopify => SHOPIFY.to_string(),
        VendorId::Adscore => ADSCORE.to_string(),
        VendorId::GeeTest => GEETEST.to_string(),
    }
}

/// A long-tail fingerprinting script distinct per `n` — stands in for the
/// hundreds of small, unattributed fingerprinters behind the paper's 504
/// unique canvases. Scripts with different `n` render different canvases;
/// the same `n` renders the same canvas everywhere.
pub fn generic_fingerprinter(n: u64) -> String {
    let phrase = match n % 4 {
        0 => "Pack my box with five dozen liquor jugs",
        1 => "How vexingly quick daft zebras jump",
        2 => "Sphinx of black quartz judge my vow",
        _ => "The five boxing wizards jump quickly",
    };
    let hue = n.wrapping_mul(47) % 360;
    let x = 2 + n.wrapping_mul(13) % 9;
    format!(
        r##"// fp-kit v{n}
let c = document.createElement("canvas");
c.width = 260; c.height = 48;
let x = c.getContext("2d");
x.textBaseline = "top";
x.fillStyle = "hsl({hue}, 80%, 45%)";
x.fillRect({x}, 2, 180, 18);
x.fillStyle = "#111";
x.font = "{size}px Segoe UI";
x.fillText("#{n} {phrase}", 3, 22);
let fp = c.toDataURL();
fp;
"##,
        size = 12 + n % 5,
    )
}

/// Akamai bot-manager sensor: one distinctive canvas, no stability check,
/// served first-party under `/akam/` (its EasyList rule misses it due to
/// the first-party exception, §5.2 footnote 5).
const AKAMAI: &str = r##"// akam sensor
fn bmakCanvas() {
    let c = document.createElement("canvas");
    c.width = 280; c.height = 60;
    let x = c.getContext("2d");
    x.fillStyle = "rgb(255,102,0)";
    x.fillRect(10, 5, 100, 30);
    x.fillStyle = "#0b6";
    x.font = "16px Arial";
    x.textBaseline = "alphabetic";
    x.fillText("<@nv45. F1n63r,Pr1n71n6!", 12, 40);
    x.strokeStyle = "rgba(0,0,255,0.6)";
    x.beginPath();
    x.arc(220, 30, 22, 0, 2 * pi(), false);
    x.stroke();
    return c.toDataURL();
}
let bmak = bmakCanvas();
bmak;
"##;

const FPJS_HEADER_OSS: &str = "// FingerprintJS open-source v4 (canvas source)\n";
const FPJS_HEADER_PRO: &str = "// Fingerprint Pro agent (licensed build)\n";

/// The two FingerprintJS test canvases: the winding (geometry) canvas and
/// the text canvas with the `Cwm fjordbank` pangram and emoji, following
/// the structure of the real `sources/canvas.ts`.
const FPJS_CANVASES: &str = r##"
fn fpjsWinding() {
    let c = document.createElement("canvas");
    c.width = 122; c.height = 110;
    let x = c.getContext("2d");
    x.globalCompositeOperation = "multiply";
    x.fillStyle = "#f2f";
    x.beginPath();
    x.arc(40, 40, 40, 0, 2 * pi(), true);
    x.fill();
    x.fillStyle = "#2ff";
    x.beginPath();
    x.arc(80, 40, 40, 0, 2 * pi(), true);
    x.fill();
    x.fillStyle = "#ff2";
    x.beginPath();
    x.arc(60, 80, 40, 0, 2 * pi(), true);
    x.fill();
    x.fillStyle = "#f9c";
    x.beginPath();
    x.arc(60, 60, 60, 0, 2 * pi(), true);
    x.arc(60, 60, 20, 0, 2 * pi(), true);
    x.fill("evenodd");
    return c.toDataURL();
}
fn fpjsText() {
    let c = document.createElement("canvas");
    c.width = 240; c.height = 60;
    let x = c.getContext("2d");
    x.textBaseline = "alphabetic";
    x.fillStyle = "#f60";
    x.fillRect(100, 1, 62, 20);
    x.fillStyle = "#069";
    x.font = "11pt no-real-font-123";
    x.fillText("Cwm fjordbank gly \u{1F603}", 2, 15);
    x.fillStyle = "rgba(102, 204, 0, 0.2)";
    x.font = "18pt Arial";
    x.fillText("Cwm fjordbank gly \u{1F603}", 4, 45);
    return c.toDataURL();
}
"##;

/// Pro build probes additional surfaces (modeled as measureText probes of
/// unusual font stacks — the "mathML" surface of footnote 2). These calls
/// are recorded by the instrumentation but do not change the canvases.
const FPJS_PRO_EXTRAS: &str = r##"
fn fpjsProExtras() {
    let c = document.createElement("canvas");
    let x = c.getContext("2d");
    x.font = "12px math";
    let m1 = x.measureText("mMwWlLiI0O&1").width;
    x.font = "12px serif";
    let m2 = x.measureText("mMwWlLiI0O&1").width;
    return m1 + m2;
}
let proSurface = fpjsProExtras();
"##;

/// The driver performs the §5.3 stability check: render the text canvas
/// twice; if the two data URLs differ, the browser is randomizing and the
/// canvas component is discarded from the fingerprint.
const FPJS_DRIVER: &str = r##"
let textA = fpjsText();
let textB = fpjsText();
let winding = fpjsWinding();
let canvasStable = textA == textB;
let components = [];
if (canvasStable) {
    components.push(textA);
    components.push(winding);
} else {
    components.push("canvas:unstable");
}
components.join("|");
"##;

/// mail.ru top counter: two canvases, with a stability double-render on
/// the first.
const MAILRU: &str = r##"// privacy-cs top counter
fn mrTextCanvas() {
    let c = document.createElement("canvas");
    c.width = 220; c.height = 44;
    let x = c.getContext("2d");
    x.textBaseline = "top";
    x.font = "13px Tahoma";
    x.fillStyle = "#00c";
    x.fillText("Tov Mail.Ru 1*@>@0", 4, 4);
    x.fillStyle = "rgba(255, 153, 0, 0.7)";
    x.fillRect(30, 18, 140, 20);
    x.fillStyle = "#333";
    x.fillText("radar-kit 3.1", 36, 22);
    return c.toDataURL();
}
fn mrGradientCanvas() {
    let c = document.createElement("canvas");
    c.width = 120; c.height = 40;
    let x = c.getContext("2d");
    let g = x.createLinearGradient(0, 0, 120, 0);
    g.addColorStop(0, "#005ff9");
    g.addColorStop(1, "#ff9e00");
    x.fillStyle = g;
    x.fillRect(0, 0, 120, 40);
    x.strokeStyle = "#fff";
    x.beginPath();
    x.moveTo(6, 34);
    x.quadraticCurveTo(60, -14, 114, 34);
    x.stroke();
    return c.toDataURL();
}
let m1 = mrTextCanvas();
let m2 = mrTextCanvas();
let m3 = mrGradientCanvas();
let ok = m1 == m2;
"##;

/// The ~2020 FingerprintJS: one text canvas, no emoji, different geometry
/// — an *update* to the vendor's script changed the canvas and broke
/// cluster continuity with the modern version (§4.3.1).
const FPJS_LEGACY: &str = r##"// fingerprintjs2 (legacy)
fn legacyCanvas() {
    let c = document.createElement("canvas");
    c.width = 400; c.height = 60;
    let x = c.getContext("2d");
    x.textBaseline = "alphabetic";
    x.fillStyle = "#f60";
    x.fillRect(125, 1, 62, 20);
    x.fillStyle = "#069";
    x.font = "11pt Arial";
    x.fillText("Cwm fjordbank glyphs vext quiz,", 2, 15);
    x.fillStyle = "rgba(102, 204, 0, 0.7)";
    x.font = "18pt Arial";
    x.fillText("Cwm fjordbank glyphs vext quiz,", 4, 45);
    return c.toDataURL();
}
let l1 = legacyCanvas();
let l2 = legacyCanvas();
let stable = l1 == l2;
"##;

/// Imperva: the canvas embeds the per-site token, making every deployment
/// unique; customers are found by the Table 3 URL pattern instead.
fn imperva(site_token: &str) -> String {
    format!(
        r##"// incapsula device intelligence
let c = document.createElement("canvas");
c.width = 300; c.height = 40;
let x = c.getContext("2d");
x.textBaseline = "top";
x.font = "14px Helvetica";
x.fillStyle = "#222";
x.fillText("imprv::{site_token}", 4, 4);
x.strokeStyle = "#c00";
x.strokeRect(2, 2, 296, 36);
x.fillStyle = "rgba(0, 128, 255, 0.4)";
x.fillRect(180, 8, 100, 24);
c.toDataURL();
"##
    )
}

const AWS_WAF: &str = r##"// awswaf challenge token
let c = document.createElement("canvas");
c.width = 320; c.height = 50;
let x = c.getContext("2d");
x.fillStyle = "#f90";
x.beginPath();
x.moveTo(10, 40);
x.bezierCurveTo(60, 0, 120, 0, 170, 40);
x.fill();
x.font = "15px Amazon Ember";
x.fillStyle = "#232f3e";
x.fillText("awswaf integrity v2 ~#", 120, 30);
c.toDataURL();
"##;

const INSURADS: &str = r##"// insurads attention tracker
fn iaText() {
    let c = document.createElement("canvas");
    c.width = 200; c.height = 50;
    let x = c.getContext("2d");
    x.font = "italic 14px Georgia";
    x.fillStyle = "#7a00cc";
    x.fillText("InsurAds RT-attention", 5, 28);
    return c.toDataURL();
}
fn iaShapes() {
    let c = document.createElement("canvas");
    c.width = 60; c.height = 60;
    let x = c.getContext("2d");
    x.fillStyle = "#0cf";
    x.beginPath();
    x.ellipse(30, 30, 24, 14, 0.5, 0, 2 * pi(), false);
    x.fill();
    return c.toDataURL();
}
let a = iaText();
let b = iaShapes();
"##;

const SIGNIFYD: &str = r##"// signifyd device fingerprint
let c = document.createElement("canvas");
c.width = 260; c.height = 40;
let x = c.getContext("2d");
x.textBaseline = "middle";
x.font = "bold 13px Verdana";
x.fillStyle = "#e8563a";
x.fillText("Signifyd ClearSale? d3v1c3", 6, 20);
x.globalAlpha = 0.5;
x.fillStyle = "#3ae856";
x.fillRect(140, 5, 110, 30);
c.toDataURL();
"##;

const PERIMETERX: &str = r##"// px sensor
fn pxText() {
    let c = document.createElement("canvas");
    c.width = 150; c.height = 50;
    let x = c.getContext("2d");
    x.font = "22px Courier New";
    x.fillStyle = "#10b981";
    x.fillText("PX7*hB", 8, 34);
    return c.toDataURL();
}
fn pxShapes() {
    let c = document.createElement("canvas");
    c.width = 80; c.height = 80;
    let x = c.getContext("2d");
    x.translate(40, 40);
    x.rotate(0.7853981633974483);
    x.fillStyle = "#f43f5e";
    x.fillRect(-20, -20, 40, 40);
    return c.toDataURL();
}
let p1 = pxText();
let p2 = pxShapes();
"##;

const SIFT: &str = r##"// sift science beacon
let c = document.createElement("canvas");
c.width = 240; c.height = 40;
let x = c.getContext("2d");
x.font = "14px Lucida Grande";
x.fillStyle = "#295dab";
x.fillText("sift trustscore &8^s", 4, 26);
x.strokeStyle = "#ffb700";
x.lineWidth = 3;
x.beginPath();
x.moveTo(150, 8);
x.lineTo(190, 32);
x.lineTo(230, 8);
x.stroke();
c.toDataURL();
"##;

/// Shopify storefront performance beacon — the tail-heavy outlier of
/// Figure 1 (Shopify storefronts are far denser below rank 20k).
const SHOPIFY: &str = r##"// shopify storefront renderer probe
let c = document.createElement("canvas");
c.width = 257; c.height = 31;
let x = c.getContext("2d");
x.textBaseline = "top";
x.font = "12px -apple-system";
x.fillStyle = "#5e8e3e";
x.fillText("shopify_perf_kit gpu-tier?", 2, 2);
x.fillStyle = "rgba(94, 142, 62, 0.25)";
x.fillRect(0, 16, 257, 14);
c.toDataURL();
"##;

const ADSCORE: &str = r##"// adscore.re verify
fn adsCanvas() {
    let c = document.createElement("canvas");
    c.width = 300; c.height = 50;
    let x = c.getContext("2d");
    x.font = "16px Trebuchet MS";
    x.fillStyle = "#9333ea";
    x.fillText("AdScore valid-traffic \u{1F600}", 4, 34);
    return c.toDataURL();
}
let a1 = adsCanvas();
let a2 = adsCanvas();
let verdict = a1 == a2;
"##;

const GEETEST: &str = r##"// geetest captcha env check
let c = document.createElement("canvas");
c.width = 300; c.height = 44;
let x = c.getContext("2d");
x.font = "15px PingFang SC";
x.fillStyle = "#3b82f6";
x.fillText("geetest slide-verify 4.0", 5, 28);
x.fillStyle = "rgba(59, 130, 246, 0.3)";
x.beginPath();
x.arc(250, 22, 16, 0, 2 * pi(), false);
x.fill();
c.toDataURL();
"##;

/// Derives a word-like, letters-and-hyphens token from a site host — used
/// for Imperva's per-site path segment and canvas text.
pub fn site_token(host: &str) -> String {
    const SYLLABLES: &[&str] = &[
        "va", "len", "tor", "mi", "ke", "ra", "dun", "sol", "pex", "qui", "zan", "bo",
    ];
    let mut h: u64 = 0x9e3779b97f4a7c15;
    for b in host.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut parts = Vec::new();
    for word in 0..2 {
        let mut s = String::new();
        for i in 0..3 {
            let idx = ((h >> (word * 24 + i * 8)) % SYLLABLES.len() as u64) as usize;
            s.push_str(SYLLABLES[idx]);
        }
        // Capitalize to look like the real-world path segments.
        let mut chars = s.chars();
        if let Some(first) = chars.next() {
            parts.push(format!("{}{}", first.to_ascii_uppercase(), chars.as_str()));
        }
    }
    parts.join("-")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_vendors;

    #[test]
    fn sources_are_deterministic() {
        for v in all_vendors() {
            assert_eq!(
                source(v.id, "Tok-En", false),
                source(v.id, "Tok-En", false),
                "{}",
                v.name
            );
        }
    }

    #[test]
    fn sources_are_pairwise_distinct() {
        let all: Vec<String> = all_vendors()
            .iter()
            .map(|v| source(v.id, "Tok-En", false))
            .collect();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn imperva_embeds_site_token() {
        let a = source(VendorId::Imperva, "Alpha-Beta", false);
        let b = source(VendorId::Imperva, "Gamma-Delta", false);
        assert_ne!(a, b);
        assert!(a.contains("Alpha-Beta"));
    }

    #[test]
    fn non_imperva_ignores_site_token() {
        for v in all_vendors().iter().filter(|v| v.id != VendorId::Imperva) {
            assert_eq!(source(v.id, "A-A", false), source(v.id, "B-B", false));
        }
    }

    #[test]
    fn fpjs_commercial_and_oss_differ_in_text_only_markers() {
        let oss = source(VendorId::FingerprintJs, "", false);
        let pro = source(VendorId::FingerprintJs, "", true);
        assert_ne!(oss, pro);
        assert!(oss.contains("open-source"));
        assert!(pro.contains("Pro"));
        // Both contain the identical canvas functions.
        assert!(oss.contains("fpjsWinding"));
        assert!(pro.contains("fpjsWinding"));
    }

    #[test]
    fn generic_fingerprinters_differ_by_index() {
        assert_ne!(generic_fingerprinter(1), generic_fingerprinter(2));
        assert_eq!(generic_fingerprinter(7), generic_fingerprinter(7));
    }

    #[test]
    fn site_tokens_are_wordlike() {
        let t = site_token("www.example-shop.com");
        assert!(t.chars().all(|c| c.is_ascii_alphabetic() || c == '-'));
        assert_eq!(t, site_token("www.example-shop.com"));
        assert_ne!(t, site_token("other.org"));
    }
}
