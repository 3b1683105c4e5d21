//! File-backed datasets for the input producer.
//!
//! §3.1 of the paper: the input producer can "(1) generate synthetic input
//! streams according to user-defined specifications or (2) read real
//! datasets". This module implements (2): a simple binary dataset file
//! (a JSON header describing the item shape and count, followed by raw
//! little-endian `f32` items) plus a cyclic reader the producer draws items
//! from.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use crayfish_tensor::{Shape, Tensor};

use crate::error::CoreError;
use crate::Result;

const MAGIC: &[u8; 8] = b"CRFDATA1";

/// Dataset file header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetHeader {
    /// Per-item shape (no batch dimension).
    pub shape: Vec<usize>,
    /// Number of items in the file.
    pub count: usize,
}

/// Write a dataset file from per-item tensors. All items must share the
/// dataset's shape.
pub fn write_dataset(path: &Path, shape: &Shape, items: &[Tensor]) -> Result<()> {
    if items.is_empty() {
        return Err(CoreError::Config(
            "dataset must contain at least one item".into(),
        ));
    }
    let header = DatasetHeader {
        shape: shape.dims().to_vec(),
        count: items.len(),
    };
    let header_json = serde_json::to_vec(&header)
        .map_err(|e| CoreError::Codec(format!("dataset header: {e}")))?;
    let file = std::fs::File::create(path)
        .map_err(|e| CoreError::Config(format!("create {}: {e}", path.display())))?;
    let mut w = BufWriter::new(file);
    let io = |e: std::io::Error| CoreError::Config(format!("write {}: {e}", path.display()));
    w.write_all(MAGIC).map_err(io)?;
    w.write_all(&(header_json.len() as u64).to_le_bytes())
        .map_err(io)?;
    w.write_all(&header_json).map_err(io)?;
    for item in items {
        if item.shape() != shape {
            return Err(CoreError::Config(format!(
                "dataset item of shape {} in a {} dataset",
                item.shape(),
                shape
            )));
        }
        for &v in item.data() {
            w.write_all(&v.to_le_bytes()).map_err(io)?;
        }
    }
    w.flush().map_err(io)?;
    Ok(())
}

/// An in-memory dataset loaded from a file, iterated cyclically.
#[derive(Debug, Clone)]
pub struct Dataset {
    shape: Shape,
    /// Flat item data, `count * shape.numel()` values.
    data: Vec<f32>,
    count: usize,
}

impl Dataset {
    /// Load a dataset file.
    pub fn load(path: &Path) -> Result<Dataset> {
        let file = std::fs::File::open(path)
            .map_err(|e| CoreError::Config(format!("open {}: {e}", path.display())))?;
        let mut r = BufReader::new(file);
        let io = |e: std::io::Error| CoreError::Codec(format!("read {}: {e}", path.display()));
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(io)?;
        if &magic != MAGIC {
            return Err(CoreError::Codec("not a crayfish dataset file".into()));
        }
        let mut len = [0u8; 8];
        r.read_exact(&mut len).map_err(io)?;
        let hlen = u64::from_le_bytes(len) as usize;
        if hlen > 1 << 20 {
            return Err(CoreError::Codec("oversized dataset header".into()));
        }
        let mut header_json = vec![0u8; hlen];
        r.read_exact(&mut header_json).map_err(io)?;
        let header: DatasetHeader = serde_json::from_slice(&header_json)
            .map_err(|e| CoreError::Codec(format!("dataset header: {e}")))?;
        let shape = Shape::new(header.shape);
        let numel = shape.numel() * header.count;
        let mut raw = Vec::new();
        r.read_to_end(&mut raw).map_err(io)?;
        if raw.len() != numel * 4 {
            return Err(CoreError::Codec(format!(
                "dataset body is {} bytes, expected {}",
                raw.len(),
                numel * 4
            )));
        }
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(Dataset {
            shape,
            data,
            count: header.count,
        })
    }

    /// Per-item shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the dataset holds no items (never, for loaded files).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Borrow item `i % len` (cyclic access, as the producer replays the
    /// dataset for the duration of an experiment).
    pub fn item(&self, i: usize) -> &[f32] {
        let idx = i % self.count;
        let n = self.shape.numel();
        &self.data[idx * n..(idx + 1) * n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("crayfish-dataset-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let shape = Shape::from([2, 3]);
        let items: Vec<Tensor> = (0..5)
            .map(|i| Tensor::seeded_uniform([2, 3], i, 0.0, 255.0))
            .collect();
        let path = tmp("roundtrip.crfd");
        write_dataset(&path, &shape, &items).unwrap();
        let ds = Dataset::load(&path).unwrap();
        assert_eq!(ds.len(), 5);
        assert_eq!(ds.shape(), &shape);
        for (i, item) in items.iter().enumerate() {
            assert_eq!(ds.item(i), item.data());
        }
        // Cyclic access wraps.
        assert_eq!(ds.item(7), items[2].data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_mismatched_items_and_empty() {
        let path = tmp("bad.crfd");
        let shape = Shape::from([4]);
        assert!(write_dataset(&path, &shape, &[]).is_err());
        let wrong = vec![Tensor::zeros([5])];
        assert!(write_dataset(&path, &shape, &wrong).is_err());
    }

    #[test]
    fn rejects_corrupt_files() {
        let path = tmp("corrupt.crfd");
        std::fs::write(&path, b"definitely not a dataset").unwrap();
        assert!(Dataset::load(&path).is_err());
        // Truncated body.
        let good = tmp("trunc.crfd");
        write_dataset(&good, &Shape::from([4]), &[Tensor::zeros([4])]).unwrap();
        let mut bytes = std::fs::read(&good).unwrap();
        bytes.truncate(bytes.len() - 4);
        std::fs::write(&good, bytes).unwrap();
        assert!(Dataset::load(&good).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&good).ok();
    }
}
