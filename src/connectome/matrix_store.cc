#include "connectome/matrix_store.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "connectome/group_matrix_io.h"
#include "util/endian.h"
#include "util/fault.h"
#include "util/spill.h"
#include "util/string_util.h"

namespace neuroprint::connectome {
namespace {

// Default streamed working set when NEUROPRINT_MEMORY_BUDGET_MB is unset:
// two 32 MiB slabs comfortably below any modern cache of concern while
// keeping seek overhead negligible at the paper's 64620-row shape.
constexpr std::size_t kDefaultBudgetBytes = 64ull << 20;

Status CheckTileBounds(const MatrixStore& store, std::size_t row0,
                       std::size_t row_count, std::size_t col0,
                       std::size_t col_count) {
  if (row0 + row_count > store.num_features() ||
      col0 + col_count > store.num_subjects()) {
    return Status::InvalidArgument(StrFormat(
        "MatrixStore: tile [%zu+%zu) x [%zu+%zu) exceeds %zu x %zu", row0,
        row_count, col0, col_count, store.num_features(),
        store.num_subjects()));
  }
  return Status::OK();
}

}  // namespace

std::size_t MatrixStore::WindowCols(std::size_t requested) const {
  if (requested == 0 && resident() != nullptr && num_subjects() > 0) {
    return num_subjects();
  }
  return DeriveWindowCols(num_features(), num_subjects(), requested);
}

Result<const linalg::Matrix*> MatrixStore::ViewColumns(
    std::size_t col0, std::size_t col_count, linalg::Matrix* slab) const {
  const linalg::Matrix* matrix = resident();
  if (matrix != nullptr && col0 == 0 && col_count == num_subjects()) {
    return matrix;
  }
  NP_RETURN_IF_ERROR(ReadColumns(col0, col_count, slab));
  return slab;
}

Status InMemoryMatrixStore::ReadTile(std::size_t row0, std::size_t row_count,
                                     std::size_t col0, std::size_t col_count,
                                     linalg::Matrix* out) const {
  NP_RETURN_IF_ERROR(CheckTileBounds(*this, row0, row_count, col0, col_count));
  *out = group_->data().Block(row0, col0, row_count, col_count);
  return Status::OK();
}

Result<std::unique_ptr<FileMatrixStore>> FileMatrixStore::Open(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  internal::NpgmHeader header;
  NP_ASSIGN_OR_RETURN(header, internal::ParseNpgmHeader(in, path));
  // The header parse validated the exact payload size (including the
  // checksum trailer), and writers publish atomically, so tiles can seek
  // freely; the value checksum is NOT verified here — that would mean
  // reading the whole payload at Open, defeating the streaming point.
  // Full-file consumers (ReadGroupMatrix) do verify it.
  auto store = std::unique_ptr<FileMatrixStore>(new FileMatrixStore());
  store->path_ = path;
  store->features_ = static_cast<std::size_t>(header.features);
  store->subjects_ = static_cast<std::size_t>(header.subjects);
  store->subject_ids_ = std::move(header.subject_ids);
  store->data_offset_ = header.data_offset;
  store->file_ = std::move(in);
  return store;
}

Status FileMatrixStore::ReadTile(std::size_t row0, std::size_t row_count,
                                 std::size_t col0, std::size_t col_count,
                                 linalg::Matrix* out) const {
  NP_RETURN_IF_ERROR(CheckTileBounds(*this, row0, row_count, col0, col_count));
  *out = linalg::Matrix(row_count, col_count);
  if (row_count == 0 || col_count == 0) return Status::OK();

  std::lock_guard<std::mutex> lock(mutex_);
  encoded_.resize(row_count * sizeof(double));
  std::vector<double> column(row_count);
  for (std::size_t c = 0; c < col_count; ++c) {
    const std::size_t j = col0 + c;
    if (fault::Enabled()) {
      const fault::Injection injection =
          fault::Hit("io.stream", static_cast<std::uint64_t>(j));
      if (injection.action == fault::Action::kError) return injection.status;
      if (injection.action != fault::Action::kNone) {
        // Corrupt / poison the column after decoding (below).
        NP_RETURN_IF_ERROR(ReadColumnBytes(j, row0, row_count));
        for (std::size_t r = 0; r < row_count; ++r) {
          column[r] = ReadLE<double>(encoded_.data() + r * sizeof(double));
        }
        if (injection.action == fault::Action::kCorrupt) {
          fault::ScrambleBytes(injection.seed, column.data(),
                               row_count * sizeof(double));
        } else {
          std::fill(column.begin(), column.end(),
                    std::numeric_limits<double>::quiet_NaN());
        }
        for (std::size_t r = 0; r < row_count; ++r) (*out)(r, c) = column[r];
        continue;
      }
    }
    NP_RETURN_IF_ERROR(ReadColumnBytes(j, row0, row_count));
    for (std::size_t r = 0; r < row_count; ++r) {
      (*out)(r, c) = ReadLE<double>(encoded_.data() + r * sizeof(double));
    }
  }
  return Status::OK();
}

Status FileMatrixStore::ReadColumnBytes(std::size_t col, std::size_t row0,
                                        std::size_t row_count) const {
  const std::uint64_t offset =
      data_offset_ +
      (static_cast<std::uint64_t>(col) * features_ + row0) * sizeof(double);
  file_.seekg(static_cast<std::streamoff>(offset));
  file_.read(reinterpret_cast<char*>(encoded_.data()),
             static_cast<std::streamsize>(row_count * sizeof(double)));
  if (!file_) {
    // The payload size was validated at Open, so a short read means the
    // file shrank underneath us: mid-tile truncation.
    file_.clear();
    return Status::CorruptData(StrFormat(
        "group-matrix tile truncated mid-read: column %zu rows [%zu, %zu) "
        "of %s",
        col, row0, row0 + row_count, path_.c_str()));
  }
  return Status::OK();
}

Result<SubsetColumnsStore> SubsetColumnsStore::Create(
    const MatrixStore& base, std::vector<std::size_t> columns) {
  SubsetColumnsStore view;
  view.base_ = &base;
  view.subject_ids_.reserve(columns.size());
  for (std::size_t j : columns) {
    if (j >= base.num_subjects()) {
      return Status::InvalidArgument(StrFormat(
          "SubsetColumnsStore: column %zu out of range (%zu subjects)", j,
          base.num_subjects()));
    }
    view.subject_ids_.push_back(base.subject_ids()[j]);
  }
  view.columns_ = std::move(columns);
  return view;
}

Status SubsetColumnsStore::ReadTile(std::size_t row0, std::size_t row_count,
                                    std::size_t col0, std::size_t col_count,
                                    linalg::Matrix* out) const {
  NP_RETURN_IF_ERROR(CheckTileBounds(*this, row0, row_count, col0, col_count));
  *out = linalg::Matrix(row_count, col_count);
  linalg::Matrix column;
  for (std::size_t c = 0; c < col_count; ++c) {
    NP_RETURN_IF_ERROR(base_->ReadTile(row0, row_count,
                                       columns_[col0 + c], 1, &column));
    for (std::size_t r = 0; r < row_count; ++r) {
      (*out)(r, c) = column(r, 0);
    }
  }
  return Status::OK();
}

std::size_t DeriveWindowCols(std::size_t features, std::size_t subjects,
                             std::size_t requested) {
  if (subjects == 0) return 1;
  if (requested > 0) return std::min(requested, subjects);
  std::size_t budget = MemoryBudgetBytes();
  if (budget == 0) budget = kDefaultBudgetBytes;
  const std::size_t column_bytes =
      std::max<std::size_t>(1, features * sizeof(double));
  // Two slabs resident (the Gram window pair), hence the halving.
  const std::size_t width = budget / (2 * column_bytes);
  return std::clamp<std::size_t>(width, 1, subjects);
}

std::size_t DeriveRowTile(std::size_t features, std::size_t subjects,
                          std::size_t requested) {
  if (features == 0) return 1;
  if (requested > 0) return std::min(requested, features);
  std::size_t budget = MemoryBudgetBytes();
  if (budget == 0) budget = kDefaultBudgetBytes;
  const std::size_t row_bytes =
      std::max<std::size_t>(1, subjects * sizeof(double));
  // Slab plus the projected tile, hence the halving.
  const std::size_t rows = budget / (2 * row_bytes);
  return std::clamp<std::size_t>(rows, 1, features);
}

Result<linalg::Matrix> StreamedGram(const MatrixStore& store,
                                    const StreamOptions& options) {
  const std::size_t m = store.num_features();
  const std::size_t n = store.num_subjects();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("StreamedGram: empty store");
  }
  const std::size_t w = store.WindowCols(options.window_cols);
  linalg::Matrix gram(n, n);
  linalg::Matrix slab_a, slab_b;
  for (std::size_t ca = 0; ca < n; ca += w) {
    const std::size_t wa = std::min(w, n - ca);
    const linalg::Matrix* window_a = nullptr;
    NP_ASSIGN_OR_RETURN(window_a, store.ViewColumns(ca, wa, &slab_a));
    // Diagonal block: MatTMul over the full feature height gives each
    // element its complete canonical sum, both triangles at once.
    linalg::Matrix block =
        linalg::MatTMul(*window_a, *window_a, options.parallel);
    for (std::size_t p = 0; p < wa; ++p) {
      for (std::size_t q = 0; q < wa; ++q) {
        gram(ca + p, ca + q) = block(p, q);
      }
    }
    for (std::size_t cb = ca + wa; cb < n; cb += w) {
      const std::size_t wb = std::min(w, n - cb);
      NP_RETURN_IF_ERROR(store.ReadColumns(cb, wb, &slab_b));
      block = linalg::MatTMul(*window_a, slab_b, options.parallel);
      // Mirror: G is exactly symmetric because each element's canonical
      // sum is term-by-term commutative (same products, same order).
      for (std::size_t p = 0; p < wa; ++p) {
        for (std::size_t q = 0; q < wb; ++q) {
          gram(ca + p, cb + q) = block(p, q);
          gram(cb + q, ca + p) = block(p, q);
        }
      }
    }
  }
  return gram;
}

Result<GroupMatrix> MaterializeStore(const MatrixStore& store) {
  const std::size_t m = store.num_features();
  const std::size_t n = store.num_subjects();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("MaterializeStore: empty store");
  }
  const std::size_t w = store.WindowCols(0);
  std::vector<linalg::Vector> columns(n);
  linalg::Matrix slab;
  for (std::size_t c0 = 0; c0 < n; c0 += w) {
    const std::size_t wc = std::min(w, n - c0);
    const linalg::Matrix* window = nullptr;
    NP_ASSIGN_OR_RETURN(window, store.ViewColumns(c0, wc, &slab));
    for (std::size_t c = 0; c < wc; ++c) {
      columns[c0 + c].resize(m);
      for (std::size_t r = 0; r < m; ++r) columns[c0 + c][r] = (*window)(r, c);
    }
  }
  return GroupMatrix::FromFeatureColumns(columns, store.subject_ids());
}

}  // namespace neuroprint::connectome
