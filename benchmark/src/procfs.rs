//! The two `/proc` readings the ledger takes of its own process: minor
//! page faults (the allocator-history signal, see README.md) and the
//! resident-set high-water mark.

/// Minor faults so far (`minflt`, field 10 of `/proc/<pid>/stat`). The
/// second field is the command in parentheses and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_minor_faults(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state(3) ppid pgrp session tty_nr tpgid flags minflt(10).
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// Peak resident set in MiB from the `VmHWM:  <n> kB` line of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = it.next()?.parse().ok()?;
    (it.next()? == "kB").then_some(kb / 1024.0)
}

/// `NaN`-on-failure readers: a reading that could not be taken fails the
/// end-of-run metric validation by name rather than passing as zero.
pub fn minor_faults() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_minor_faults(&s))
        .map_or(f64::NAN, |v| v as f64)
}

pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minor_faults_is_the_tenth_field() {
        let stat =
            "1234 (srumma-benchmar) R 1 1234 1234 0 -1 4194304 98765 0 3 0 12 4 0 0 20 0 3 0";
        assert_eq!(parse_minor_faults(stat), Some(98765));
    }

    #[test]
    fn minor_faults_survives_a_hostile_command_name() {
        let stat = "77 (a b) c) d) S 1 77 77 0 -1 0 4242 0 0 0 0 0";
        assert_eq!(parse_minor_faults(stat), Some(4242));
        assert_eq!(parse_minor_faults("no parens here"), None);
        assert_eq!(parse_minor_faults("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb_and_reported_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        assert!(minor_faults() > 0.0);
        assert!(vm_hwm_mb() > 0.0);
    }
}
