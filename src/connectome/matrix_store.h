// Out-of-core access to group matrices: a windowed-tile read interface
// (`MatrixStore`) with an in-RAM adapter, a file-backed NPGM reader, and
// the streamed Gram kernel the out-of-core attack builds on.
//
// Determinism contract (see docs/ANALYSIS.md "Out-of-core"): every
// streamed kernel issues only full-K GEMM calls — a Gram block is
// MatTMul over two full-height column slabs, a scoring tile is MatMul
// over a full-width row slab — so each output element is produced by the
// canonical fixed-panel summation of gemm_kernel.h, exactly as the
// in-RAM call produces it. Window size and row-tile size therefore
// never change a single bit, at any thread count; the `out-of-core`
// test tier asserts bitwise equality across window sizes x threads.
// A resident store (one whose matrix is already in RAM) asked for no
// particular window is read in place as a single window — no copy — which
// is the same computation at the widest window.
//
// The file backend reads tiles with explicit seeks (no mmap): bounded,
// predictable resident set; a mid-tile truncation (file shrank after
// Open) surfaces CorruptData naming the tile, and the `io.stream` fault
// point (keyed by absolute column index) can inject errors or corrupt /
// poison a column mid-stream.

#ifndef NEUROPRINT_CONNECTOME_MATRIX_STORE_H_
#define NEUROPRINT_CONNECTOME_MATRIX_STORE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connectome/group_matrix.h"
#include "linalg/matrix.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace neuroprint::connectome {

/// Column-windowed access to a features x subjects matrix. Implementations
/// must return tiles bitwise-equal to the corresponding Block of the fully
/// materialized matrix.
class MatrixStore {
 public:
  virtual ~MatrixStore() = default;

  virtual std::size_t num_features() const = 0;
  virtual std::size_t num_subjects() const = 0;
  virtual const std::vector<std::string>& subject_ids() const = 0;

  /// Reads the tile [row0, row0 + row_count) x [col0, col0 + col_count)
  /// into `out` (resized to row_count x col_count, row-major).
  /// InvalidArgument when the tile exceeds the matrix bounds.
  virtual Status ReadTile(std::size_t row0, std::size_t row_count,
                          std::size_t col0, std::size_t col_count,
                          linalg::Matrix* out) const = 0;

  /// The whole matrix when it already lives in RAM, else nullptr. A
  /// resident store is read in place: the streamed kernels hand it to the
  /// in-RAM code instead of copying windows out of it.
  virtual const linalg::Matrix* resident() const { return nullptr; }

  /// Full-height column window [col0, col0 + col_count).
  Status ReadColumns(std::size_t col0, std::size_t col_count,
                     linalg::Matrix* out) const {
    return ReadTile(0, num_features(), col0, col_count, out);
  }

  /// Columns per window when the caller asked for `requested` (0 = no
  /// particular width): a resident store is then one window; otherwise
  /// DeriveWindowCols.
  std::size_t WindowCols(std::size_t requested) const;

  /// Full-height window [col0, col0 + col_count) for reading: the resident
  /// matrix itself when the window spans all of it (no copy), else `slab`
  /// filled by ReadColumns.
  Result<const linalg::Matrix*> ViewColumns(std::size_t col0,
                                            std::size_t col_count,
                                            linalg::Matrix* slab) const;
};

/// In-RAM adapter: a non-owning view of a GroupMatrix (the caller keeps
/// it alive). It reports the matrix as resident, so the store-backed
/// attack, leverage and enroll paths read it in place; the GroupMatrix
/// overloads of those paths are adapters over this store.
class InMemoryMatrixStore final : public MatrixStore {
 public:
  explicit InMemoryMatrixStore(const GroupMatrix& group) : group_(&group) {}

  std::size_t num_features() const override { return group_->num_features(); }
  std::size_t num_subjects() const override { return group_->num_subjects(); }
  const std::vector<std::string>& subject_ids() const override {
    return group_->subject_ids();
  }
  const linalg::Matrix* resident() const override { return &group_->data(); }
  Status ReadTile(std::size_t row0, std::size_t row_count, std::size_t col0,
                  std::size_t col_count, linalg::Matrix* out) const override;

 private:
  const GroupMatrix* group_;
};

/// File-backed NPGM store: validates the full header (magic, version,
/// dimension bounds, ids, exact payload size — the ReadGroupMatrix
/// checks) at Open, then serves tiles with per-column seeks. Reads are
/// serialized on an internal mutex; the streamed kernels issue them from
/// one thread and parallelize the compute instead.
class FileMatrixStore final : public MatrixStore {
 public:
  /// Opens and validates `path`. CorruptData / Unimplemented / IOError
  /// exactly as ReadGroupMatrix reports them.
  static Result<std::unique_ptr<FileMatrixStore>> Open(
      const std::string& path);

  std::size_t num_features() const override { return features_; }
  std::size_t num_subjects() const override { return subjects_; }
  const std::vector<std::string>& subject_ids() const override {
    return subject_ids_;
  }
  Status ReadTile(std::size_t row0, std::size_t row_count, std::size_t col0,
                  std::size_t col_count, linalg::Matrix* out) const override;

 private:
  FileMatrixStore() = default;

  /// Reads rows [row0, row0 + row_count) of column `col` into encoded_
  /// (caller holds mutex_). CorruptData on a short read.
  Status ReadColumnBytes(std::size_t col, std::size_t row0,
                         std::size_t row_count) const;

  std::string path_;
  std::size_t features_ = 0;
  std::size_t subjects_ = 0;
  std::vector<std::string> subject_ids_;
  std::uint64_t data_offset_ = 0;
  mutable std::mutex mutex_;
  mutable std::ifstream file_;
  /// Per-call decode buffer, guarded by mutex_.
  mutable std::vector<std::uint8_t> encoded_;
};

/// Column-subset view of another store (the survivor-restriction step of
/// the streamed attack): column j of the view is column `columns[j]` of
/// the base store, ids remapped to match. Non-owning; the base store must
/// outlive the view.
class SubsetColumnsStore final : public MatrixStore {
 public:
  /// InvalidArgument when any index is out of range.
  static Result<SubsetColumnsStore> Create(const MatrixStore& base,
                                           std::vector<std::size_t> columns);

  std::size_t num_features() const override { return base_->num_features(); }
  std::size_t num_subjects() const override { return columns_.size(); }
  const std::vector<std::string>& subject_ids() const override {
    return subject_ids_;
  }
  Status ReadTile(std::size_t row0, std::size_t row_count, std::size_t col0,
                  std::size_t col_count, linalg::Matrix* out) const override;

 private:
  SubsetColumnsStore() = default;

  const MatrixStore* base_ = nullptr;
  std::vector<std::size_t> columns_;
  std::vector<std::string> subject_ids_;
};

/// Knobs for the streamed kernels. Every setting trades memory for IO
/// only — results are bitwise-identical at any value (the window
/// determinism contract above).
struct StreamOptions {
  /// Columns per slab. 0 derives a width from NEUROPRINT_MEMORY_BUDGET_MB
  /// (64 MiB working set when unset).
  std::size_t window_cols = 0;
  /// Rows per scoring tile. 0 derives like window_cols.
  std::size_t row_tile = 0;
  /// Threads for the per-slab GEMM calls (never changes results).
  ParallelContext parallel;
};

/// Slab width / tile height derivation from the memory budget; exposed so
/// tests can pin the derived values. `requested` wins when non-zero.
std::size_t DeriveWindowCols(std::size_t features, std::size_t subjects,
                             std::size_t requested);
std::size_t DeriveRowTile(std::size_t features, std::size_t subjects,
                          std::size_t requested);

/// G = A^T A streamed over column-window pairs: each block is
/// MatTMul(slab_a, slab_b) over full feature columns, mirrored into the
/// symmetric result — bitwise-equal to linalg::Gram(materialized) at any
/// window size and thread count, with only two slabs resident.
Result<linalg::Matrix> StreamedGram(const MatrixStore& store,
                                    const StreamOptions& options = {});

/// Fully materializes the store as a GroupMatrix. No library path needs
/// it: every streamed kernel covers every shape. It is the in-RAM oracle
/// the streamed-equals-in-RAM tests compare against.
Result<GroupMatrix> MaterializeStore(const MatrixStore& store);

}  // namespace neuroprint::connectome

#endif  // NEUROPRINT_CONNECTOME_MATRIX_STORE_H_
