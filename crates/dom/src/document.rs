//! The instrumented document: canvas elements, 2D contexts, and the
//! [`Host`] implementation that exposes them to canvascript.

use std::collections::HashMap;
use std::sync::Arc;

use canvassing_raster::canvas::{data_url, ImageFormat};
use canvassing_raster::{Canvas2D, DeviceProfile, SharedText, Surface, SurfacePool};
use canvassing_script::{Host, HostRef, RuntimeError, Value};

use crate::record::{ApiCall, ApiInterface, CallKind, Extraction};

/// A hook applied to pixels at extraction time (`toDataURL`,
/// `getImageData`). Browser anti-fingerprinting defenses (canvas
/// randomization) are implemented as pixel filters by the browser crate.
pub trait PixelFilter {
    /// Mutates the about-to-be-extracted pixels. `invocation` counts
    /// extractions within the page load: per-render noise uses it, while
    /// per-session noise ignores it (Firefox-style persistent noise —
    /// see §5.3 footnote 7).
    fn filter(&mut self, canvas_index: usize, surface: &mut Surface, invocation: u64);
}

/// Canvas-blocking defense result marker: `toDataURL` returns this fixed
/// string when the browser blocks canvas reads outright (Tor-style).
pub const BLOCKED_DATA_URL: &str = "data:,";

/// What kind of read-back defense the document applies.
#[derive(Default)]
pub enum ReadbackDefense {
    /// No defense (default browser).
    #[default]
    None,
    /// All canvas extractions return a constant (Tor-style blocking).
    Block,
    /// Pixels are filtered through the hook before extraction.
    Filter(Box<dyn PixelFilter>),
}

/// Fixed handles for singletons.
const H_DOCUMENT: HostRef = 1;
const H_WINDOW: HostRef = 2;
const H_NAVIGATOR: HostRef = 3;

/// Host-object table entry.
enum Obj {
    Canvas(usize),
    Context(usize),
    Gradient(usize),
    TextMetrics(f64),
    ImageData { w: u32, h: u32, data: Vec<u8> },
}

/// An instrumented web document with canvas support.
///
/// The document owns every canvas created via
/// `document.createElement("canvas")`, records all Canvas API activity,
/// and exposes the DOM to scripts through the [`Host`] trait.
pub struct Document {
    device: DeviceProfile,
    canvases: Vec<Canvas2D>,
    /// Reported canvas index for each live canvas in `canvases`. Live
    /// canvases and absorbed memoized renders (see [`Document::absorb_render`])
    /// draw from one shared index sequence, so `canvas_alias[vec_pos]`
    /// maps a storage position to the index recorded in API calls.
    canvas_alias: Vec<usize>,
    /// Next canvas index to hand out (counts live + absorbed canvases).
    next_canvas_index: usize,
    gradients: Vec<canvassing_raster::Gradient>,
    objects: HashMap<HostRef, Obj>,
    next_handle: HostRef,
    calls: Vec<ApiCall>,
    extractions: Vec<Extraction>,
    defense: ReadbackDefense,
    /// URL attributed to the currently executing script; the browser sets
    /// this before each script run.
    current_script_url: String,
    /// Simulated clock (ms since navigation start).
    clock_ms: u64,
    extraction_count: u64,
    /// User-agent string surfaced through `navigator.userAgent`.
    user_agent: String,
    /// Optional recycling pool for canvas pixel buffers.
    pool: Option<Arc<SurfacePool>>,
}

impl Document {
    /// Creates an empty document rendering with the given device profile.
    pub fn new(device: DeviceProfile) -> Document {
        Document {
            device,
            canvases: Vec::new(),
            canvas_alias: Vec::new(),
            next_canvas_index: 0,
            gradients: Vec::new(),
            objects: HashMap::new(),
            next_handle: 16,
            calls: Vec::new(),
            extractions: Vec::new(),
            defense: ReadbackDefense::None,
            current_script_url: String::new(),
            clock_ms: 0,
            extraction_count: 0,
            user_agent: "Mozilla/5.0 (X11; Linux x86_64) Chrome-like/125.0".into(),
            pool: None,
        }
    }

    /// Like [`Document::new`], but canvas pixel buffers are taken from and
    /// returned to `pool` (see `canvassing-raster`'s `SurfacePool`).
    /// Recycled buffers are zeroed, so rendering is byte-identical to the
    /// unpooled path.
    pub fn with_pool(device: DeviceProfile, pool: Arc<SurfacePool>) -> Document {
        let mut doc = Document::new(device);
        doc.pool = Some(pool);
        doc
    }

    /// Installs a read-back defense (used by the browser's
    /// anti-fingerprinting modes).
    pub fn set_defense(&mut self, defense: ReadbackDefense) {
        self.defense = defense;
    }

    /// Sets the script URL attributed to subsequent API calls, starting a
    /// fresh host-handle namespace for the script about to run.
    ///
    /// Handle numbers appear in recorded call args and return values
    /// (`[object #N]`), and scripts are fully isolated — no host API hands
    /// one script an object another script created — so restarting the
    /// numbering per script is invisible to script behavior while making a
    /// script's instrumentation record independent of what ran before it
    /// (the property the render memoization layer relies on). Stale
    /// entries for reused handles are simply overwritten; dead scripts
    /// cannot reach them.
    pub fn set_current_script(&mut self, url: &str) {
        self.current_script_url = url.to_string();
        self.next_handle = 16;
    }

    /// Advances the simulated clock (the browser adds network latency and
    /// think-time here).
    pub fn advance_clock(&mut self, ms: u64) {
        self.clock_ms += ms;
    }

    /// All recorded API calls, in order.
    pub fn calls(&self) -> &[ApiCall] {
        &self.calls
    }

    /// All canvas extractions, in order.
    pub fn extractions(&self) -> &[Extraction] {
        &self.extractions
    }

    /// Consumes the document, returning its records. Live canvas buffers
    /// are recycled into the pool, if one is attached.
    pub fn into_records(mut self) -> (Vec<ApiCall>, Vec<Extraction>) {
        if let Some(pool) = self.pool.take() {
            for canvas in self.canvases.drain(..) {
                pool.recycle_buffer(canvas.into_buffer());
            }
        }
        (self.calls, self.extractions)
    }

    /// Number of canvas elements created (live plus absorbed memoized
    /// renders).
    pub fn canvas_count(&self) -> usize {
        self.next_canvas_index
    }

    /// Replays a memoized script render into this document.
    ///
    /// `calls` / `extractions` must be *normalized* records: produced by
    /// running the script on a fresh scratch document (clock 0, no prior
    /// calls, no defense), so every `seq`, `timestamp_ms`, and
    /// `canvas_index` is relative to zero. Relocation is a pure affine
    /// offset because scripts are isolated — a script cannot observe other
    /// scripts' canvases, the clock, or record counters through any host
    /// API, so its behavior is independent of the document state it runs
    /// in. `record()` advances the clock by exactly 1ms per call and
    /// extractions advance nothing, which is why the clock advances by
    /// `calls.len()` here.
    pub fn absorb_render(
        &mut self,
        calls: &[ApiCall],
        extractions: &[Extraction],
        canvases_created: usize,
        script_url: &str,
    ) {
        let seq_base = self.calls.len() as u64;
        let clock_base = self.clock_ms;
        let canvas_base = self.next_canvas_index;
        for c in calls {
            self.calls.push(ApiCall {
                seq: c.seq + seq_base,
                timestamp_ms: c.timestamp_ms + clock_base,
                interface: c.interface,
                kind: c.kind,
                name: c.name.clone(),
                args: c.args.clone(),
                return_value: c.return_value.clone(),
                script_url: script_url.to_string(),
                canvas_index: c.canvas_index + canvas_base,
            });
        }
        for e in extractions {
            self.extractions.push(Extraction {
                seq: e.seq + seq_base,
                timestamp_ms: e.timestamp_ms + clock_base,
                canvas_index: e.canvas_index + canvas_base,
                data_url: e.data_url.clone(),
                mime: e.mime.clone(),
                width: e.width,
                height: e.height,
                script_url: script_url.to_string(),
            });
        }
        self.clock_ms += calls.len() as u64;
        self.extraction_count += extractions.len() as u64;
        self.next_canvas_index += canvases_created;
    }

    /// Read access to a canvas's backing surface (tests / drawImage).
    pub fn canvas_surface(&self, index: usize) -> Option<&Surface> {
        self.canvases.get(index).map(|c| c.surface())
    }

    fn alloc(&mut self, obj: Obj) -> HostRef {
        let h = self.next_handle;
        self.next_handle += 1;
        self.objects.insert(h, obj);
        h
    }

    /// Maps a canvas storage position to its reported index (they diverge
    /// once memoized renders have been absorbed).
    fn reported_index(&self, vec_pos: usize) -> usize {
        self.canvas_alias.get(vec_pos).copied().unwrap_or(vec_pos)
    }

    fn record(
        &mut self,
        interface: ApiInterface,
        kind: CallKind,
        name: &str,
        args: Vec<String>,
        return_value: Option<SharedText>,
        canvas_index: usize,
    ) {
        self.clock_ms += 1;
        self.calls.push(ApiCall {
            seq: self.calls.len() as u64,
            timestamp_ms: self.clock_ms,
            interface,
            kind,
            name: name.to_string(),
            args,
            return_value,
            script_url: self.current_script_url.clone(),
            canvas_index: self.reported_index(canvas_index),
        });
    }

    fn canvas_index(&self, h: HostRef) -> Result<usize, RuntimeError> {
        match self.objects.get(&h) {
            Some(Obj::Canvas(i)) | Some(Obj::Context(i)) => Ok(*i),
            _ => Err(RuntimeError::new("not a canvas object")),
        }
    }

    /// Encodes canvas `index` and records the extraction. The returned
    /// handle, hashed here, is the one the extraction holds; the
    /// `toDataURL` call records it too.
    fn extract_data_url(&mut self, index: usize, mime: &str, quality: Option<f64>) -> SharedText {
        self.extraction_count += 1;
        let canvas = &self.canvases[index];
        let url = SharedText::hashed(&match &mut self.defense {
            ReadbackDefense::None => canvas.to_data_url(mime, quality),
            ReadbackDefense::Block => BLOCKED_DATA_URL.to_string(),
            ReadbackDefense::Filter(filter) => {
                let mut surface = canvas.surface().clone();
                filter.filter(index, &mut surface, self.extraction_count);
                data_url(&surface, mime, quality)
            }
        });
        let canvas = &self.canvases[index];
        self.extractions.push(Extraction {
            seq: self.calls.len() as u64, // the call is recorded right after
            timestamp_ms: self.clock_ms + 1,
            canvas_index: self.reported_index(index),
            data_url: url.clone(),
            mime: ImageFormat::from_mime(mime).mime().to_string(),
            width: canvas.width(),
            height: canvas.height(),
            script_url: self.current_script_url.clone(),
        });
        url
    }
}

fn f(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_num).unwrap_or(0.0)
}

fn s(v: Option<&Value>) -> String {
    v.map(Value::to_display_string).unwrap_or_default()
}

fn fmt_args(args: &[Value]) -> Vec<String> {
    args.iter()
        .map(|a| {
            let text = a.to_display_string();
            // Large data blobs (putImageData arrays) are truncated in the
            // log, like real crawler instrumentation does.
            if text.len() > 256 {
                format!("{}…[{} bytes]", &text[..64], text.len())
            } else {
                text
            }
        })
        .collect()
}

impl Host for Document {
    fn global(&mut self, name: &str) -> Option<Value> {
        match name {
            "document" => Some(Value::Host(H_DOCUMENT)),
            "window" => Some(Value::Host(H_WINDOW)),
            "navigator" => Some(Value::Host(H_NAVIGATOR)),
            _ => None,
        }
    }

    fn get_prop(&mut self, obj: HostRef, name: &str) -> Result<Value, RuntimeError> {
        if obj == H_NAVIGATOR {
            return match name {
                "userAgent" => Ok(Value::Str(self.user_agent.clone())),
                "webdriver" => Ok(Value::Bool(false)),
                _ => Ok(Value::Null),
            };
        }
        if obj == H_DOCUMENT || obj == H_WINDOW {
            return Ok(Value::Null);
        }
        match self.objects.get(&obj) {
            Some(Obj::Canvas(i)) => {
                let i = *i;
                let canvas = &self.canvases[i];
                let v = match name {
                    "width" => Value::Num(canvas.width() as f64),
                    "height" => Value::Num(canvas.height() as f64),
                    _ => Value::Null,
                };
                self.record(
                    ApiInterface::Canvas,
                    CallKind::Get,
                    name,
                    vec![],
                    Some(v.to_display_string().into()),
                    i,
                );
                Ok(v)
            }
            Some(Obj::Context(i)) => {
                let i = *i;
                let canvas = &self.canvases[i];
                let v = match name {
                    "fillStyle" | "strokeStyle" => Value::Str("#000000".into()),
                    "globalAlpha" => Value::Num(canvas.global_alpha()),
                    "globalCompositeOperation" => Value::Str(canvas.composite_op().into()),
                    "canvas" => {
                        // Find the canvas handle that shares this index.
                        let handle = self
                            .objects
                            .iter()
                            .find_map(|(h, o)| match o {
                                Obj::Canvas(ci) if *ci == i => Some(*h),
                                _ => None,
                            })
                            .ok_or_else(|| RuntimeError::new("orphan context"))?;
                        Value::Host(handle)
                    }
                    _ => Value::Null,
                };
                self.record(
                    ApiInterface::Context2D,
                    CallKind::Get,
                    name,
                    vec![],
                    Some(v.to_display_string().into()),
                    i,
                );
                Ok(v)
            }
            Some(Obj::TextMetrics(w)) => match name {
                "width" => Ok(Value::Num(*w)),
                _ => Ok(Value::Null),
            },
            Some(Obj::ImageData { w, h, data }) => match name {
                "width" => Ok(Value::Num(*w as f64)),
                "height" => Ok(Value::Num(*h as f64)),
                "data" => Ok(Value::array(
                    data.iter().map(|&b| Value::Num(b as f64)).collect(),
                )),
                _ => Ok(Value::Null),
            },
            Some(Obj::Gradient(_)) => Ok(Value::Null),
            None => Err(RuntimeError::new("unknown host object")),
        }
    }

    fn set_prop(&mut self, obj: HostRef, name: &str, value: Value) -> Result<(), RuntimeError> {
        match self.objects.get(&obj) {
            Some(Obj::Canvas(i)) => {
                let i = *i;
                self.record(
                    ApiInterface::Canvas,
                    CallKind::Set,
                    name,
                    vec![value.to_display_string()],
                    None,
                    i,
                );
                let canvas = &mut self.canvases[i];
                match name {
                    "width" => {
                        let w = value.as_num().unwrap_or(300.0).max(0.0) as u32;
                        let h = canvas.height();
                        canvas.resize(w, h);
                    }
                    "height" => {
                        let h = value.as_num().unwrap_or(150.0).max(0.0) as u32;
                        let w = canvas.width();
                        canvas.resize(w, h);
                    }
                    // style, id, className etc. are accepted and ignored.
                    _ => {}
                }
                Ok(())
            }
            Some(Obj::Context(i)) => {
                let i = *i;
                self.record(
                    ApiInterface::Context2D,
                    CallKind::Set,
                    name,
                    vec![value.to_display_string()],
                    None,
                    i,
                );
                let canvas = &mut self.canvases[i];
                match name {
                    "fillStyle" => match value {
                        Value::Host(h) => {
                            if let Some(Obj::Gradient(gi)) = self.objects.get(&h) {
                                let g = self.gradients[*gi].clone();
                                self.canvases[i].set_fill_gradient(g);
                            }
                        }
                        other => canvas.set_fill_style(&other.to_display_string()),
                    },
                    "strokeStyle" => match value {
                        Value::Host(h) => {
                            if let Some(Obj::Gradient(gi)) = self.objects.get(&h) {
                                let g = self.gradients[*gi].clone();
                                self.canvases[i].set_stroke_gradient(g);
                            }
                        }
                        other => canvas.set_stroke_style(&other.to_display_string()),
                    },
                    "font" => canvas.set_font(&value.to_display_string()),
                    "textBaseline" => canvas.set_text_baseline(&value.to_display_string()),
                    "globalAlpha" => {
                        if let Some(a) = value.as_num() {
                            canvas.set_global_alpha(a);
                        }
                    }
                    "globalCompositeOperation" => {
                        canvas.set_composite_op(&value.to_display_string())
                    }
                    "lineWidth" => {
                        if let Some(w) = value.as_num() {
                            canvas.set_line_width(w);
                        }
                    }
                    "lineCap" => canvas.set_line_cap(&value.to_display_string()),
                    _ => {} // shadowBlur etc.: accepted, recorded, ignored
                }
                Ok(())
            }
            _ => Ok(()), // setting properties on document/window is a no-op
        }
    }

    fn call_method(
        &mut self,
        obj: HostRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        if obj == H_DOCUMENT {
            return match method {
                "createElement" => {
                    let tag = s(args.first()).to_ascii_lowercase();
                    if tag != "canvas" {
                        return Err(RuntimeError::new(format!(
                            "createElement: only canvas is modeled, got {tag:?}"
                        )));
                    }
                    let index = self.canvases.len();
                    let canvas = match self.pool.as_ref().and_then(|p| p.take_buffer()) {
                        Some(buf) => Canvas2D::with_buffer(300, 150, self.device.clone(), buf),
                        None => Canvas2D::new(300, 150, self.device.clone()),
                    };
                    self.canvases.push(canvas);
                    self.canvas_alias.push(self.next_canvas_index);
                    self.next_canvas_index += 1;
                    let h = self.alloc(Obj::Canvas(index));
                    Ok(Value::Host(h))
                }
                "getElementById" | "querySelector" => Ok(Value::Null),
                _ => Err(RuntimeError::new(format!(
                    "document.{method} is not modeled"
                ))),
            };
        }
        if obj == H_WINDOW || obj == H_NAVIGATOR {
            return Ok(Value::Null);
        }

        let kind = self
            .objects
            .get(&obj)
            .ok_or_else(|| RuntimeError::new("unknown host object"))?;
        match kind {
            Obj::Canvas(i) => {
                let i = *i;
                match method {
                    "getContext" => {
                        let ctx_type = s(args.first());
                        self.record(
                            ApiInterface::Canvas,
                            CallKind::Method,
                            "getContext",
                            fmt_args(&args),
                            None,
                            i,
                        );
                        if ctx_type != "2d" {
                            // WebGL contexts are out of scope; scripts
                            // treat null as "unsupported", like old browsers.
                            return Ok(Value::Null);
                        }
                        let h = self.alloc(Obj::Context(i));
                        Ok(Value::Host(h))
                    }
                    "toDataURL" => {
                        let mime = match args.first() {
                            Some(Value::Str(m)) => m.clone(),
                            _ => "image/png".to_string(),
                        };
                        let quality = args.get(1).and_then(Value::as_num);
                        let url = self.extract_data_url(i, &mime, quality);
                        let value = Value::Str(url.to_string());
                        self.record(
                            ApiInterface::Canvas,
                            CallKind::Method,
                            "toDataURL",
                            fmt_args(&args),
                            Some(url),
                            i,
                        );
                        Ok(value)
                    }
                    "toBlob" => Err(RuntimeError::new("toBlob is not modeled (async)")),
                    other => Err(RuntimeError::new(format!(
                        "HTMLCanvasElement.{other} is not modeled"
                    ))),
                }
            }
            Obj::Context(i) => {
                let i = *i;
                self.record(
                    ApiInterface::Context2D,
                    CallKind::Method,
                    method,
                    fmt_args(&args),
                    None,
                    i,
                );
                let a = |n: usize| f(args.get(n));
                let canvas = &mut self.canvases[i];
                match method {
                    "fillRect" => canvas.fill_rect(a(0), a(1), a(2), a(3)),
                    "strokeRect" => canvas.stroke_rect(a(0), a(1), a(2), a(3)),
                    "clearRect" => canvas.clear_rect(a(0), a(1), a(2), a(3)),
                    "beginPath" => canvas.begin_path(),
                    "closePath" => canvas.close_path(),
                    "moveTo" => canvas.move_to(a(0), a(1)),
                    "lineTo" => canvas.line_to(a(0), a(1)),
                    "quadraticCurveTo" => canvas.quadratic_curve_to(a(0), a(1), a(2), a(3)),
                    "bezierCurveTo" => canvas.bezier_curve_to(a(0), a(1), a(2), a(3), a(4), a(5)),
                    "arc" => {
                        let ccw = args.get(5).map(Value::truthy).unwrap_or(false);
                        canvas.arc(a(0), a(1), a(2), a(3), a(4), ccw);
                    }
                    "ellipse" => {
                        let ccw = args.get(7).map(Value::truthy).unwrap_or(false);
                        canvas.ellipse(a(0), a(1), a(2), a(3), a(4), a(5), a(6), ccw);
                    }
                    "rect" => canvas.rect(a(0), a(1), a(2), a(3)),
                    "fill" => {
                        let rule = match args.first() {
                            Some(Value::Str(r)) => {
                                canvassing_raster::fill::FillRule::parse(r).unwrap_or_default()
                            }
                            _ => Default::default(),
                        };
                        canvas.fill(rule);
                    }
                    "stroke" => canvas.stroke(),
                    "fillText" => {
                        let text = s(args.first());
                        canvas.fill_text(&text, a(1), a(2));
                    }
                    "strokeText" => {
                        let text = s(args.first());
                        canvas.stroke_text(&text, a(1), a(2));
                    }
                    "measureText" => {
                        let text = s(args.first());
                        let w = canvas.measure_text(&text);
                        let h = self.alloc(Obj::TextMetrics(w));
                        return Ok(Value::Host(h));
                    }
                    "save" => canvas.save(),
                    "restore" => canvas.restore(),
                    "translate" => canvas.translate(a(0), a(1)),
                    "scale" => canvas.scale(a(0), a(1)),
                    "rotate" => canvas.rotate(a(0)),
                    "transform" => canvas.transform(a(0), a(1), a(2), a(3), a(4), a(5)),
                    "setTransform" => canvas.set_transform(a(0), a(1), a(2), a(3), a(4), a(5)),
                    "resetTransform" => canvas.reset_transform(),
                    "createLinearGradient" => {
                        let g = canvassing_raster::Gradient::linear(a(0), a(1), a(2), a(3));
                        self.gradients.push(g);
                        let gi = self.gradients.len() - 1;
                        let h = self.alloc(Obj::Gradient(gi));
                        return Ok(Value::Host(h));
                    }
                    "createRadialGradient" => {
                        let g =
                            canvassing_raster::Gradient::radial(a(0), a(1), a(2), a(3), a(4), a(5));
                        self.gradients.push(g);
                        let gi = self.gradients.len() - 1;
                        let h = self.alloc(Obj::Gradient(gi));
                        return Ok(Value::Host(h));
                    }
                    "getImageData" => {
                        let (x, y) = (a(0) as i64, a(1) as i64);
                        let (w, h) = (a(2).max(0.0) as u32, a(3).max(0.0) as u32);
                        let mut data = self.canvases[i].get_image_data(x, y, w, h);
                        if let ReadbackDefense::Filter(filter) = &mut self.defense {
                            // Apply the noise defense to getImageData too.
                            self.extraction_count += 1;
                            let mut tmp = Surface::new(w, h);
                            tmp.data_mut().copy_from_slice(&data);
                            filter.filter(i, &mut tmp, self.extraction_count);
                            data = tmp.data().to_vec();
                        } else if let ReadbackDefense::Block = self.defense {
                            data = vec![0; data.len()];
                        }
                        let handle = self.alloc(Obj::ImageData { w, h, data });
                        return Ok(Value::Host(handle));
                    }
                    "putImageData" => {
                        let handle = match args.first() {
                            Some(Value::Host(h)) => *h,
                            _ => return Err(RuntimeError::new("putImageData: expected ImageData")),
                        };
                        let (x, y) = (a(1) as i64, a(2) as i64);
                        if let Some(Obj::ImageData { w, h, data }) = self.objects.get(&handle) {
                            let (w, h, data) = (*w, *h, data.clone());
                            self.canvases[i].put_image_data(&data, x, y, w, h);
                        }
                    }
                    "drawImage" => {
                        let src_handle = match args.first() {
                            Some(Value::Host(h)) => *h,
                            _ => return Err(RuntimeError::new("drawImage: expected canvas")),
                        };
                        let src_index = self.canvas_index(src_handle)?;
                        let src = self.canvases[src_index].surface().clone();
                        let (dx, dy) = (a(1), a(2));
                        let (dw, dh) = if args.len() >= 5 {
                            (a(3), a(4))
                        } else {
                            (src.width() as f64, src.height() as f64)
                        };
                        self.canvases[i].draw_image(&src, dx, dy, dw, dh);
                    }
                    "isPointInPath" => return Ok(Value::Bool(false)),
                    "clip" | "setLineDash" | "arcTo" | "createPattern" => {
                        // Recorded (above) but intentionally inert: the
                        // modeled scripts only probe their existence.
                    }
                    other => {
                        return Err(RuntimeError::new(format!(
                            "CanvasRenderingContext2D.{other} is not modeled"
                        )))
                    }
                }
                Ok(Value::Null)
            }
            Obj::Gradient(gi) => {
                let gi = *gi;
                match method {
                    "addColorStop" => {
                        let offset = f(args.first());
                        let color = s(args.get(1));
                        if let Ok(c) = canvassing_raster::color::parse_css_color(&color) {
                            self.gradients[gi].add_stop(offset, c);
                        }
                        Ok(Value::Null)
                    }
                    other => Err(RuntimeError::new(format!(
                        "CanvasGradient.{other} is not modeled"
                    ))),
                }
            }
            Obj::TextMetrics(_) | Obj::ImageData { .. } => Err(RuntimeError::new(format!(
                "no method {method} on this object"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvassing_script::eval;

    fn doc() -> Document {
        Document::new(DeviceProfile::intel_ubuntu())
    }

    const FP_SCRIPT: &str = r##"
        let c = document.createElement("canvas");
        c.width = 240;
        c.height = 60;
        let ctx = c.getContext("2d");
        ctx.textBaseline = "top";
        ctx.font = "14px Arial";
        ctx.fillStyle = "#f60";
        ctx.fillRect(125, 1, 62, 20);
        ctx.fillStyle = "#069";
        ctx.fillText("Cwm fjordbank glyphs vext quiz, \u{1F603}", 2, 15);
        c.toDataURL();
    "##;

    #[test]
    fn canvas_script_end_to_end() {
        let mut d = doc();
        d.set_current_script("https://cdn.example/fp.js");
        let result = eval(FP_SCRIPT, &mut d).unwrap();
        let url = result.to_display_string();
        assert!(url.starts_with("data:image/png;base64,"));
        assert_eq!(d.extractions().len(), 1);
        assert_eq!(d.extractions()[0].width, 240);
        assert_eq!(d.extractions()[0].script_url, "https://cdn.example/fp.js");
        assert!(!d.calls().is_empty());
    }

    #[test]
    fn identical_scripts_identical_extractions() {
        let run = || {
            let mut d = doc();
            eval(FP_SCRIPT, &mut d).unwrap();
            d.extractions()[0].data_url.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_devices_different_extractions() {
        let run = |device: DeviceProfile| {
            let mut d = Document::new(device);
            eval(FP_SCRIPT, &mut d).unwrap();
            d.extractions()[0].data_url.clone()
        };
        assert_ne!(
            run(DeviceProfile::intel_ubuntu()),
            run(DeviceProfile::apple_m1())
        );
    }

    #[test]
    fn calls_are_recorded_with_args() {
        let mut d = doc();
        eval(FP_SCRIPT, &mut d).unwrap();
        let fill_text = d
            .calls()
            .iter()
            .find(|c| c.name == "fillText")
            .expect("fillText recorded");
        assert_eq!(fill_text.interface, ApiInterface::Context2D);
        assert_eq!(fill_text.kind, CallKind::Method);
        assert!(fill_text.args[0].contains("Cwm fjordbank"));
        let set_font = d
            .calls()
            .iter()
            .find(|c| c.name == "font" && c.kind == CallKind::Set)
            .expect("font set recorded");
        assert_eq!(set_font.args, vec!["14px Arial"]);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let mut d = doc();
        eval(FP_SCRIPT, &mut d).unwrap();
        let times: Vec<u64> = d.calls().iter().map(|c| c.timestamp_ms).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn canvas_resize_clears_content() {
        let mut d = doc();
        let src = r#"
            let c = document.createElement("canvas");
            let ctx = c.getContext("2d");
            ctx.fillRect(0, 0, 10, 10);
            c.width = 100;
            c.toDataURL();
        "#;
        eval(src, &mut d).unwrap();
        assert!(d.canvas_surface(0).unwrap().is_blank());
    }

    #[test]
    fn gradient_roundtrip() {
        let mut d = doc();
        let src = r#"
            let c = document.createElement("canvas");
            c.width = 16; c.height = 4;
            let ctx = c.getContext("2d");
            let g = ctx.createLinearGradient(0, 0, 16, 0);
            g.addColorStop(0, "black");
            g.addColorStop(1, "white");
            ctx.fillStyle = g;
            ctx.fillRect(0, 0, 16, 4);
            c.toDataURL();
        "#;
        eval(src, &mut d).unwrap();
        let surface = d.canvas_surface(0).unwrap();
        assert!(surface.get(15, 1).r > surface.get(0, 1).r + 100);
    }

    #[test]
    fn measure_text_returns_width() {
        let mut d = doc();
        let src = r#"
            let c = document.createElement("canvas");
            let ctx = c.getContext("2d");
            ctx.font = "20px Arial";
            ctx.measureText("mmmm").width;
        "#;
        let v = eval(src, &mut d).unwrap();
        assert!(v.as_num().unwrap() > 10.0);
    }

    #[test]
    fn block_defense_returns_constant() {
        let mut d = doc();
        d.set_defense(ReadbackDefense::Block);
        let v = eval(FP_SCRIPT, &mut d).unwrap();
        assert_eq!(v.to_display_string(), BLOCKED_DATA_URL);
    }

    #[test]
    fn filter_defense_changes_pixels() {
        struct Bump;
        impl PixelFilter for Bump {
            fn filter(&mut self, _i: usize, surface: &mut Surface, invocation: u64) {
                let data = surface.data_mut();
                if let Some(b) = data.first_mut() {
                    *b = b.wrapping_add(invocation as u8);
                }
            }
        }
        let mut d = doc();
        d.set_defense(ReadbackDefense::Filter(Box::new(Bump)));
        let src = r#"
            let c = document.createElement("canvas");
            c.width = 20; c.height = 20;
            let ctx = c.getContext("2d");
            ctx.fillStyle = "red";
            ctx.fillRect(0, 0, 20, 20);
            let u1 = c.toDataURL();
            let u2 = c.toDataURL();
            u1 == u2;
        "#;
        let v = eval(src, &mut d).unwrap();
        assert!(!v.truthy(), "per-render noise must differ across renders");
    }

    #[test]
    fn webgl_context_is_null() {
        let mut d = doc();
        let v = eval(
            r#"
            let c = document.createElement("canvas");
            c.getContext("webgl") == null;
        "#,
            &mut d,
        )
        .unwrap();
        assert!(v.truthy());
    }

    #[test]
    fn get_image_data_roundtrips_through_script() {
        let mut d = doc();
        let src = r#"
            let c = document.createElement("canvas");
            c.width = 4; c.height = 4;
            let ctx = c.getContext("2d");
            ctx.fillStyle = "rgb(10, 20, 30)";
            ctx.fillRect(0, 0, 4, 4);
            let img = ctx.getImageData(0, 0, 2, 2);
            img.data[0] + img.data[1] + img.data[2] + img.data[3];
        "#;
        let v = eval(src, &mut d).unwrap();
        assert_eq!(v.as_num(), Some(10.0 + 20.0 + 30.0 + 255.0));
    }

    #[test]
    fn draw_image_between_canvases() {
        let mut d = doc();
        let src = r#"
            let a = document.createElement("canvas");
            a.width = 4; a.height = 4;
            let actx = a.getContext("2d");
            actx.fillStyle = "lime";
            actx.fillRect(0, 0, 4, 4);
            let b = document.createElement("canvas");
            b.width = 8; b.height = 8;
            let bctx = b.getContext("2d");
            bctx.drawImage(a, 0, 0, 8, 8);
            let img = bctx.getImageData(4, 4, 1, 1);
            img.data[1];
        "#;
        let v = eval(src, &mut d).unwrap();
        assert_eq!(v.as_num(), Some(255.0));
    }

    #[test]
    fn property_reads_are_recorded() {
        let mut d = doc();
        eval(
            r#"
            let c = document.createElement("canvas");
            let w = c.width;
            let ctx = c.getContext("2d");
            let op = ctx.globalCompositeOperation;
        "#,
            &mut d,
        )
        .unwrap();
        let width_get = d
            .calls()
            .iter()
            .find(|c| c.name == "width" && c.kind == CallKind::Get)
            .expect("width get recorded");
        assert_eq!(width_get.interface, ApiInterface::Canvas);
        assert_eq!(width_get.return_value.as_deref(), Some("300"));
        let op_get = d
            .calls()
            .iter()
            .find(|c| c.name == "globalCompositeOperation" && c.kind == CallKind::Get)
            .expect("op get recorded");
        assert_eq!(op_get.return_value.as_deref(), Some("source-over"));
    }

    #[test]
    fn large_args_are_truncated_in_the_log() {
        let mut d = doc();
        let big = "x".repeat(400);
        eval(
            &format!(
                r#"
                let c = document.createElement("canvas");
                c.width = 400; c.height = 20;
                let ctx = c.getContext("2d");
                ctx.fillText("{big}", 0, 10);
            "#
            ),
            &mut d,
        )
        .unwrap();
        let call = d.calls().iter().find(|c| c.name == "fillText").unwrap();
        assert!(call.args[0].len() < 300, "arg should be truncated");
        assert!(call.args[0].contains("bytes"));
    }

    #[test]
    fn stroke_text_and_stroke_rect_paint() {
        let mut d = doc();
        eval(
            r#"
            let c = document.createElement("canvas");
            c.width = 80; c.height = 40;
            let ctx = c.getContext("2d");
            ctx.strokeStyle = "navy";
            ctx.lineWidth = 2;
            ctx.strokeRect(5, 5, 60, 30);
            ctx.strokeText("ab", 10, 25);
        "#,
            &mut d,
        )
        .unwrap();
        assert!(!d.canvas_surface(0).unwrap().is_blank());
    }

    #[test]
    fn extraction_counts_match_to_data_url_calls() {
        let mut d = doc();
        eval(
            r#"
            let c = document.createElement("canvas");
            c.width = 20; c.height = 20;
            c.toDataURL();
            c.toDataURL("image/jpeg");
            c.toDataURL("image/webp", 0.5);
        "#,
            &mut d,
        )
        .unwrap();
        assert_eq!(d.extractions().len(), 3);
        let mimes: Vec<&str> = d.extractions().iter().map(|e| e.mime.as_str()).collect();
        assert_eq!(mimes, vec!["image/png", "image/jpeg", "image/webp"]);
        let calls = d.calls().iter().filter(|c| c.name == "toDataURL").count();
        assert_eq!(calls, 3);
    }

    #[test]
    fn multiple_canvases_have_distinct_indices() {
        let mut d = doc();
        eval(
            r#"
            let a = document.createElement("canvas");
            a.width = 20; a.height = 20;
            let b = document.createElement("canvas");
            b.width = 20; b.height = 20;
            a.toDataURL();
            b.toDataURL();
        "#,
            &mut d,
        )
        .unwrap();
        assert_eq!(d.canvas_count(), 2);
        let indices: Vec<usize> = d.extractions().iter().map(|e| e.canvas_index).collect();
        assert_eq!(indices, vec![0, 1]);
    }

    #[test]
    fn unknown_methods_error() {
        let mut d = doc();
        assert!(eval("document.write(\"x\");", &mut d).is_err());
    }
}
