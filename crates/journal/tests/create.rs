//! `JournalWriter::create` replaces whatever file is at its path, and
//! refuses what it cannot replace without touching it.

use std::path::PathBuf;
use ugc_journal::{read_journal, JournalError, JournalWriter, TailStatus};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ugc-journal-create-{}-{tag}", std::process::id()))
}

#[test]
fn create_replaces_a_longer_journal() {
    let path = temp_path("replace.wal");
    let mut old = JournalWriter::create(&path).unwrap();
    for i in 1u8..=5 {
        old.append(&[i; 64]).unwrap();
    }
    old.seal().unwrap();
    drop(old);
    let mut new = JournalWriter::create(&path).unwrap();
    new.append(b"\x07fresh").unwrap();
    drop(new);
    let journal = read_journal(&path).unwrap();
    let payloads: Vec<&[u8]> = journal.records.iter().map(|r| &r.payload[..]).collect();
    assert_eq!(payloads, [b"\x07fresh"]);
    assert_eq!(journal.seal, None);
    assert_eq!(journal.tail, TailStatus::Clean);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn create_leaves_a_directory_untouched() {
    let dir = temp_path("dir");
    std::fs::create_dir(&dir).unwrap();
    std::fs::write(dir.join("inside"), b"kept").unwrap();
    assert!(matches!(
        JournalWriter::create(&dir),
        Err(JournalError::Io { .. })
    ));
    assert_eq!(std::fs::read(dir.join("inside")).unwrap(), b"kept");
    std::fs::remove_dir_all(&dir).unwrap();
}
