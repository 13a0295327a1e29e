//! `KvChunk`: one chunk of the relocatable key-value collection (one
//! complet per chunk, after the "relocatable distributed collection" of
//! the APGAS paper in PAPERS.md).
//!
//! A chunk is a dense array of records addressed by their index in the
//! chunk. A record is whatever `Value` the workload stores: a byte
//! string for the key-value workloads, a small map for the graph one.

use fargo_core::{define_complet, FargoError, Value};

fn index(args: &[Value], at: usize, len: usize) -> Result<usize, FargoError> {
    args.get(at)
        .and_then(Value::as_i64)
        .and_then(|i| usize::try_from(i).ok())
        .filter(|&i| i < len)
        .ok_or_else(|| FargoError::InvalidArgument(format!("index out of 0..{len}")))
}

define_complet! {
    /// One chunk: `recs[i]` is the record at index `i`.
    pub complet KvChunk {
        state {
            recs: Vec<Value> = Vec::new(),
        }
        init(&mut self, args) {
            // The population arrives by value with the constructor call.
            self.recs = args.first().and_then(Value::as_list).unwrap_or(&[]).to_vec();
            Ok(())
        }
        fn get(&mut self, _ctx, args) {
            let i = index(args, 0, self.recs.len())?;
            Ok(self.recs[i].clone())
        }
        fn put(&mut self, _ctx, args) {
            let i = index(args, 0, self.recs.len())?;
            self.recs[i] = args.get(1).cloned().unwrap_or(Value::Null);
            Ok(Value::Null)
        }
        fn scan(&mut self, _ctx, args) {
            let start = index(args, 0, self.recs.len())?;
            let n = index(args, 1, self.recs.len() - start + 1)?;
            Ok(Value::List(self.recs[start..start + n].to_vec()))
        }
        fn put_batch(&mut self, _ctx, args) {
            let start = index(args, 0, self.recs.len())?;
            let batch = args.get(1).and_then(Value::as_list).unwrap_or(&[]);
            if batch.len() > self.recs.len() - start {
                return Err(FargoError::InvalidArgument("batch runs past the chunk".into()));
            }
            self.recs[start..start + batch.len()].clone_from_slice(batch);
            Ok(Value::I64(batch.len() as i64))
        }
    }
}
