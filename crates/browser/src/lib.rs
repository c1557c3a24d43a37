//! # seacma-browser
//!
//! An *instrumented headless browser* model standing in for the paper's
//! customized Chromium (a re-implementation of JSgraph ported to Chromium
//! 64 with automated Blink–JS binding instrumentation, §3.2).
//!
//! The downstream pipeline never touches a rendering engine; it consumes
//! the browser's **logs** — navigations with their causes, script loads,
//! JS API calls, dialog bypasses, downloads — plus **screenshots**. This
//! crate produces exactly those artifacts while driving page loads against
//! a [`seacma_simweb::World`]:
//!
//! * [`BrowserSession::navigate`] follows every redirect mechanism the
//!   paper catalogues (HTTP 30x, meta refresh, `window.location`,
//!   `history.pushState`, `setTimeout` navigations) and records each hop
//!   with its cause — the raw material of backtracking graphs (§3.4).
//! * The **stealth patch** hides `navigator.webdriver` (the anti-bot check
//!   several ad networks run against DevTools automation).
//! * The **lock bypass** instrumentation neutralizes modal-dialog loops,
//!   auth-dialog storms and `onbeforeunload` traps; without it a session
//!   wedges on tech-support-scam pages exactly as stock automation does.
//! * Screenshots are rendered from the page's visual template with
//!   per-instance noise, as the clustering step expects — or, on the
//!   crawl fast path ([`session::ScreenshotMode::Hash`]), captured as
//!   perceptual hashes directly with no pixel buffer, through a shared
//!   clean-render memo ([`RenderCache`]).

#![deny(missing_docs)]

pub mod log;
pub mod quiet;
pub mod render_cache;
pub mod session;

pub use log::{EventLog, EventRef, NavCause};
pub use quiet::QuietBrowser;
pub use render_cache::RenderCache;
pub use session::{
    BrowserConfig, BrowserSession, LoadedPage, NavError, Screenshot, ScreenshotMode,
};
