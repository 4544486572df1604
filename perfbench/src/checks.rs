//! Output checks. Every workload verifies what the system returns; a
//! violation fails the run.

use dl_obs::{flat_name, Snapshot};

use crate::stream::Rng;

/// Bytes a `token_read` file is seeded with.
pub fn seeded_content(seed: u64, file: usize, size: usize) -> Vec<u8> {
    let mut out = vec![0; size];
    Rng::stream(seed ^ 0x5EED_F11E, file as u64).fill(&mut out);
    out
}

/// A read must return exactly the file's bytes.
pub fn check_read(file: usize, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let at =
        got.iter().zip(expected).position(|(a, b)| a != b).unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "file {file}: read {} bytes differing from its {} seeded bytes at offset {at}",
        got.len(),
        expected.len()
    ))
}

const MAGIC: &[u8; 8] = b"DLBENCH1";
const HEADER: usize = 24;

/// Version `version` of `update_mix` file `file`: a header naming the
/// file and version, then bytes drawn from both, so any two versions
/// differ throughout.
pub fn versioned_payload(seed: u64, file: usize, version: u64, size: usize) -> Vec<u8> {
    let mut out = vec![0; size.max(HEADER)];
    out[..8].copy_from_slice(MAGIC);
    out[8..16].copy_from_slice(&(file as u64).to_le_bytes());
    out[16..24].copy_from_slice(&version.to_le_bytes());
    Rng::stream(seed ^ (version << 32), file as u64).fill(&mut out[HEADER..]);
    out
}

/// The version a payload's header claims, if it is a well-formed header
/// of `file`.
fn header_version(file: usize, data: &[u8]) -> Option<u64> {
    if data.len() < HEADER || &data[..8] != MAGIC {
        return None;
    }
    let f = u64::from_le_bytes(data[8..16].try_into().ok()?);
    (f == file as u64).then(|| u64::from_le_bytes(data[16..24].try_into().expect("8 bytes")))
}

/// A read of `file` must return one whole version, no older than
/// `acked_before` (the last update acknowledged before the read began).
/// Returns the version read.
pub fn check_versioned_read(
    seed: u64,
    file: usize,
    size: usize,
    acked_before: u64,
    data: &[u8],
) -> Result<u64, String> {
    let v = header_version(file, data)
        .ok_or_else(|| format!("file {file}: read returned no version header of this file"))?;
    if v < acked_before {
        return Err(format!(
            "file {file}: read saw version {v} after version {acked_before} was acked"
        ));
    }
    if data != versioned_payload(seed, file, v, size).as_slice() {
        return Err(format!("file {file}: read returned a torn or corrupted version {v}"));
    }
    Ok(v)
}

/// At the end of `update_mix`, the file itself, its archive on the
/// primary and its archive on the standby must all hold the last acked
/// version, `acked` (bytes of version number `version`). Linking does not
/// archive, so a file never updated (`version` 0) may have no archive yet.
pub fn check_final_version(
    file: usize,
    version: u64,
    acked: &[u8],
    content: &[u8],
    primary: Option<&[u8]>,
    standby: Option<&[u8]>,
) -> Result<(), String> {
    let places =
        [("content", Some(content)), ("primary archive", primary), ("standby archive", standby)];
    for (place, got) in places {
        match got {
            Some(got) if got == acked => {}
            None if version == 0 => {}
            Some(_) => {
                return Err(format!("file {file}: {place} does not hold acked version {version}"))
            }
            None => {
                return Err(format!("file {file}: {place} holds no version, {version} was acked"))
            }
        }
    }
    Ok(())
}

/// What `link_wire` leaves behind once its clients stop.
#[derive(Debug, Default)]
pub struct LinkEndState {
    /// Paths the DLFM repository holds links for.
    pub repo_links: Vec<String>,
    /// Rows left in the host table.
    pub host_rows: usize,
    /// Host transactions the DLFM still holds in flight.
    pub pending_host_txns: usize,
    /// Frames that failed to decode on any wire endpoint.
    pub decode_errors: u64,
}

/// After `link_wire`, the repository holds only the fixture's links.
pub fn check_link_end(fixture_links: &[String], end: &LinkEndState) -> Result<(), String> {
    let mut have = end.repo_links.clone();
    have.sort();
    let mut want = fixture_links.to_vec();
    want.sort();
    if have != want {
        let extra: Vec<_> = have.iter().filter(|p| !want.contains(p)).take(5).collect();
        let missing: Vec<_> = want.iter().filter(|p| !have.contains(p)).take(5).collect();
        return Err(format!(
            "repository holds {} links, the fixture made {}: leftover {extra:?}, missing {missing:?}",
            have.len(),
            want.len()
        ));
    }
    if end.host_rows != fixture_links.len() {
        return Err(format!("host table holds {} rows, expected {}", end.host_rows, want.len()));
    }
    if end.pending_host_txns != 0 {
        return Err(format!("{} host transactions still pending", end.pending_host_txns));
    }
    if end.decode_errors != 0 {
        return Err(format!("{} wire decode errors", end.decode_errors));
    }
    Ok(())
}

/// Checks every workload runs: no contained upcall panic and no request
/// from a stale coordinator.
pub fn check_health(m: &Snapshot) -> Result<(), String> {
    let watched = |name: &str| {
        let flat = flat_name(name);
        flat.ends_with("upcall_pool_panics") || flat.ends_with("stale_coord_rejections")
    };
    let counters = m.counters.iter().map(|(n, &v)| (n, v as f64));
    for (name, v) in counters.chain(m.gauges.iter().map(|(n, &v)| (n, v))) {
        if watched(name) && v != 0.0 {
            return Err(format!("{name} = {v}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_read_fails_the_read_check() {
        let want = seeded_content(1, 3, 8192);
        assert!(check_read(3, &want, &want).is_ok());
        let mut bad = want.clone();
        bad[4000] ^= 1;
        assert!(check_read(3, &want, &bad).unwrap_err().contains("offset 4000"));
        assert!(check_read(3, &want, &want[..8191]).is_err());
        // Another file's bytes are not this file's.
        assert!(check_read(3, &want, &seeded_content(1, 4, 8192)).is_err());
    }

    #[test]
    fn a_stale_or_torn_version_fails_the_versioned_read_check() {
        let v3 = versioned_payload(9, 5, 3, 65536);
        assert_eq!(check_versioned_read(9, 5, 65536, 3, &v3), Ok(3));
        assert_eq!(check_versioned_read(9, 5, 65536, 2, &v3), Ok(3));
        // Version 4 was acked before the read began: 3 is stale.
        assert!(check_versioned_read(9, 5, 65536, 4, &v3).unwrap_err().contains("after version 4"));
        let mut torn = v3.clone();
        torn[40_000..].copy_from_slice(&versioned_payload(9, 5, 2, 65536)[40_000..]);
        assert!(check_versioned_read(9, 5, 65536, 3, &torn).unwrap_err().contains("torn"));
        assert!(check_versioned_read(9, 6, 65536, 0, &v3).is_err());
        assert!(check_versioned_read(9, 5, 65536, 0, &[]).is_err());
    }

    #[test]
    fn a_dropped_acked_version_fails_the_final_check() {
        let v7 = versioned_payload(2, 1, 7, 1024);
        let v6 = versioned_payload(2, 1, 6, 1024);
        assert!(check_final_version(1, 7, &v7, &v7, Some(&v7), Some(&v7)).is_ok());
        // The standby dropped acked version 7.
        let e = check_final_version(1, 7, &v7, &v7, Some(&v7), Some(&v6)).unwrap_err();
        assert!(e.contains("standby archive"), "{e}");
        let e = check_final_version(1, 7, &v7, &v7, Some(&v6), Some(&v7)).unwrap_err();
        assert!(e.contains("primary archive"), "{e}");
        let e = check_final_version(1, 7, &v7, &v6, Some(&v7), Some(&v7)).unwrap_err();
        assert!(e.contains("content"), "{e}");
        assert!(check_final_version(1, 7, &v7, &v7, None, Some(&v7)).is_err());
        // A file never updated need not be archived, but must not differ.
        let v0 = versioned_payload(2, 1, 0, 1024);
        assert!(check_final_version(1, 0, &v0, &v0, None, None).is_ok());
        assert!(check_final_version(1, 0, &v0, &v0, Some(&v6), None).is_err());
    }

    #[test]
    fn link_end_check_fires_on_each_leftover() {
        let fixture = vec!["/data/a".to_string()];
        let clean =
            LinkEndState { repo_links: fixture.clone(), host_rows: 1, ..Default::default() };
        assert!(check_link_end(&fixture, &clean).is_ok());
        let leftover = LinkEndState {
            repo_links: vec!["/data/a".into(), "/data/b".into()],
            host_rows: 1,
            ..Default::default()
        };
        assert!(check_link_end(&fixture, &leftover).unwrap_err().contains("/data/b"));
        let row = LinkEndState { host_rows: 2, ..clean_copy(&clean) };
        assert!(check_link_end(&fixture, &row).is_err());
        let pending = LinkEndState { pending_host_txns: 1, ..clean_copy(&clean) };
        assert!(check_link_end(&fixture, &pending).is_err());
        let decode = LinkEndState { decode_errors: 1, ..clean_copy(&clean) };
        assert!(check_link_end(&fixture, &decode).is_err());
    }

    fn clean_copy(s: &LinkEndState) -> LinkEndState {
        LinkEndState {
            repo_links: s.repo_links.clone(),
            host_rows: s.host_rows,
            ..Default::default()
        }
    }

    #[test]
    fn health_check_fires_on_panics_and_stale_coordinators() {
        let mut m = Snapshot::default();
        m.counters.insert("dlfm.srv1.upcall_pool.panics".into(), 0);
        m.counters.insert("dlfm.srv1.stale_coord_rejections".into(), 0);
        assert!(check_health(&m).is_ok());
        m.counters.insert("dlfm.srv1.stale_coord_rejections".into(), 1);
        assert!(check_health(&m).is_err());
        let mut m = Snapshot::default();
        m.gauges.insert("dlfm.srv1.upcall_pool.panics".into(), 2.0);
        assert!(check_health(&m).is_err());
    }
}
