//! Milked file downloads and the VirusTotal pipeline.

use seacma_util::impl_json_struct;

use seacma_blacklist::ScanReport;
use seacma_simweb::{FilePayload, SimTime, Url};

/// One file harvested by interacting with a milked SE attack page.
#[derive(Debug, Clone, PartialEq)]
pub struct MilkedFile {
    /// The payload served.
    pub payload: FilePayload,
    /// Landing URL it came from.
    pub page: Url,
    /// When it was downloaded.
    pub t: SimTime,
    /// Whether VirusTotal already knew the hash at submission time
    /// (paper: only 1,203 of 9,476).
    pub known_at_submit: bool,
    /// Scan report at submission.
    pub initial: ScanReport,
    /// Scan report after the months-later rescan (filled at experiment
    /// end).
    pub final_report: Option<ScanReport>,
}

impl MilkedFile {
    /// Whether the matured ensemble flags the file.
    pub fn finally_malicious(&self) -> bool {
        self.final_report.as_ref().is_some_and(ScanReport::is_malicious)
    }

    /// Whether at least `n` engines flag it after rescan.
    pub fn detected_by_at_least(&self, n: u32) -> bool {
        self.final_report.as_ref().is_some_and(|r| r.detections >= n)
    }
}

/// Aggregate statistics over a batch of milked files (the §4.5 numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DownloadStats {
    /// Total files milked.
    pub total: usize,
    /// Files VirusTotal already knew at submission.
    pub known_at_submit: usize,
    /// Files flagged malicious after rescan.
    pub finally_malicious: usize,
    /// Files flagged by ≥ 15 engines after rescan.
    pub flagged_15_plus: usize,
}

impl DownloadStats {
    /// Computes the aggregate over a batch.
    pub fn over(files: &[MilkedFile]) -> DownloadStats {
        DownloadStats {
            total: files.len(),
            known_at_submit: files.iter().filter(|f| f.known_at_submit).count(),
            finally_malicious: files.iter().filter(|f| f.finally_malicious()).count(),
            flagged_15_plus: files.iter().filter(|f| f.detected_by_at_least(15)).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seacma_blacklist::VirusTotal;
    use seacma_simweb::{FileFormat, SimDuration};

    fn file(vt: &mut VirusTotal, i: u64, rescan: bool) -> MilkedFile {
        let payload = FilePayload::serve(900, FileFormat::Pe, &[i]);
        let t = SimTime(10);
        let known = vt.lookup(&payload, t).is_some();
        let initial = vt.submit(&payload, t);
        let final_report = rescan.then(|| {
            vt.rescan(&payload, t + SimDuration::from_days(90)).expect("submitted")
        });
        MilkedFile { payload, page: Url::http("x.club", "/"), t, known_at_submit: known, initial, final_report }
    }

    #[test]
    fn stats_reflect_catchup() {
        let mut vt = VirusTotal::new(5);
        let files: Vec<MilkedFile> = (0..300).map(|i| file(&mut vt, i, true)).collect();
        let stats = DownloadStats::over(&files);
        assert_eq!(stats.total, 300);
        assert!(stats.known_at_submit < 60, "known {}", stats.known_at_submit);
        assert!(stats.finally_malicious > 270, "malicious {}", stats.finally_malicious);
        assert!(
            stats.flagged_15_plus > 60 && stats.flagged_15_plus < 200,
            "15+ {}",
            stats.flagged_15_plus
        );
    }

    #[test]
    fn no_rescan_means_not_finally_malicious() {
        let mut vt = VirusTotal::new(5);
        let f = file(&mut vt, 1, false);
        assert!(!f.finally_malicious());
        assert!(!f.detected_by_at_least(1));
    }
}
impl_json_struct!(MilkedFile { payload, page, t, known_at_submit, initial, final_report });
