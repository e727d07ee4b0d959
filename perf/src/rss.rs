//! Resident-set readings from `/proc/self/status`.

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_mb() -> Result<f64, String> {
    status_kb("VmHWM:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_owned())
}

/// Current resident set (`VmRSS`), in MB.
pub fn current_mb() -> Result<f64, String> {
    status_kb("VmRSS:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "cannot read VmRSS from /proc/self/status".to_owned())
}
