//! Instrumentation records.
//!
//! The paper's crawler is DuckDuckGo's Tracker Radar Collector modified to
//! intercept "the arguments, return value, script source URL, and
//! timestamp of API calls and property accesses to the interfaces
//! `CanvasRenderingContext2D` and `HTMLCanvasElement`" (§3.1). These types
//! are that log.

use canvassing_raster::SharedText;
use serde::{Deserialize, Serialize};

/// Which instrumented interface an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ApiInterface {
    /// `HTMLCanvasElement`.
    Canvas,
    /// `CanvasRenderingContext2D`.
    Context2D,
}

/// Kind of interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallKind {
    /// Method invocation.
    Method,
    /// Property read.
    Get,
    /// Property write.
    Set,
}

/// One recorded API event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiCall {
    /// Monotonic sequence number within the page load.
    pub seq: u64,
    /// Timestamp in (simulated) milliseconds since navigation start.
    pub timestamp_ms: u64,
    /// Interface the member belongs to.
    pub interface: ApiInterface,
    /// Method/property interaction kind.
    pub kind: CallKind,
    /// Member name (`fillText`, `toDataURL`, `fillStyle`, …).
    pub name: String,
    /// Stringified arguments (for `Set`, the assigned value).
    pub args: Vec<String>,
    /// Stringified return value when interesting (notably `toDataURL`).
    /// A `toDataURL` call holds the same handle as its [`Extraction`]'s
    /// `data_url`, so the canvas bytes are stored once per record.
    pub return_value: Option<SharedText>,
    /// URL of the script that performed the call (the page URL for inline
    /// first-party-bundled code).
    pub script_url: String,
    /// Which canvas element (per-document index) the call targets.
    pub canvas_index: usize,
}

/// A canvas extraction event — one `toDataURL` call, the unit of analysis
/// for the whole study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Extraction {
    /// Sequence number of the corresponding [`ApiCall`].
    pub seq: u64,
    /// Timestamp in simulated milliseconds.
    pub timestamp_ms: u64,
    /// Per-document canvas index.
    pub canvas_index: usize,
    /// The full data URL returned to the script. The handle is built once
    /// per `toDataURL`, hashed where it is built, and shared by the call's
    /// `return_value` and by every memo replay of the render.
    pub data_url: SharedText,
    /// MIME type actually used (`image/png`, `image/jpeg`, `image/webp`).
    pub mime: String,
    /// Canvas width at extraction time.
    pub width: u32,
    /// Canvas height at extraction time.
    pub height: u32,
    /// URL of the extracting script.
    pub script_url: String,
}

impl Extraction {
    /// Stable content hash of the data URL (used for clustering).
    pub fn content_hash(&self) -> u64 {
        self.data_url.hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_hash_depends_on_data_url() {
        let mk = |url: &str| Extraction {
            seq: 0,
            timestamp_ms: 0,
            canvas_index: 0,
            data_url: url.into(),
            mime: "image/png".into(),
            width: 300,
            height: 150,
            script_url: "https://a.com/x.js".into(),
        };
        assert_eq!(mk("data:x").content_hash(), mk("data:x").content_hash());
        assert_ne!(mk("data:x").content_hash(), mk("data:y").content_hash());
    }

    #[test]
    fn api_call_serializes_to_json() {
        let call = ApiCall {
            seq: 1,
            timestamp_ms: 5,
            interface: ApiInterface::Context2D,
            kind: CallKind::Method,
            name: "fillText".into(),
            args: vec!["Cwm".into(), "2".into(), "15".into()],
            return_value: None,
            script_url: "https://cdn.example/fp.js".into(),
            canvas_index: 0,
        };
        let json = serde_json::to_string(&call).unwrap();
        let back: ApiCall = serde_json::from_str(&json).unwrap();
        assert_eq!(back, call);
    }
}
