// Chunked gzip inflation with bytes-consumed accounting: the gzip layer
// under ReadNifti (nifti_io.h), which decodes a .nii.gz in one forward
// pass without ever holding the compressed bytes or the whole plaintext.
//
// GzipStreamReader inflates through a fixed 64 KiB input window and
// reports truncation with exact counts: a clean Z_STREAM_END is
// end-of-data, and anything short of it is CorruptData naming how many
// compressed bytes were consumed and how many plaintext bytes came out.

#ifndef NEUROPRINT_NIFTI_NIFTI_STREAM_H_
#define NEUROPRINT_NIFTI_NIFTI_STREAM_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "nifti/nifti_io.h"
#include "util/status.h"

// Forward declaration so this header does not leak <zlib.h>.
struct z_stream_s;

namespace neuroprint::nifti {

/// Chunked gzip decoder over a file. Move-only; the inflate state lives
/// on the heap so moves never relocate it under zlib's feet.
class GzipStreamReader {
 public:
  static Result<GzipStreamReader> Open(const std::string& path);

  GzipStreamReader(GzipStreamReader&&) noexcept;
  GzipStreamReader& operator=(GzipStreamReader&&) noexcept;
  GzipStreamReader(const GzipStreamReader&) = delete;
  GzipStreamReader& operator=(const GzipStreamReader&) = delete;
  ~GzipStreamReader();

  /// Inflates up to `count` plaintext bytes into `out`. Returns the number
  /// produced; 0 means the stream ended cleanly (Z_STREAM_END, every
  /// member finished). A file that ends mid-member is CorruptData naming
  /// the compressed bytes consumed and plaintext bytes decoded; damaged
  /// streams are CorruptData with the same accounting. Concatenated gzip
  /// members decode seamlessly; trailing non-gzip garbage after a clean
  /// member end is ignored (matching zlib's gzread).
  Result<std::size_t> Read(std::uint8_t* out, std::size_t count);

  /// Compressed bytes fed to inflate so far.
  std::uint64_t compressed_consumed() const { return compressed_consumed_; }
  /// Plaintext bytes produced so far.
  std::uint64_t decoded_bytes() const { return decoded_bytes_; }
  /// True once the stream ended cleanly.
  bool finished() const { return finished_; }

 private:
  GzipStreamReader() = default;

  /// Tops up the input window (compacting leftovers) until it holds at
  /// least `want` bytes or the file is exhausted. IOError on read failure.
  Status FillInput(std::size_t want);

  std::string path_;
  std::ifstream file_;
  std::unique_ptr<z_stream_s> strm_;
  std::vector<std::uint8_t> input_;
  std::size_t input_pos_ = 0;
  std::size_t input_len_ = 0;
  bool file_exhausted_ = false;
  bool finished_ = false;
  std::uint64_t compressed_consumed_ = 0;
  std::uint64_t decoded_bytes_ = 0;
};

/// Deprecated spelling of ReadNifti, kept only because the benchmark's
/// raw_attack workload (perfbench/raw_attack.cc) still calls it; the next
/// change to the benchmark switches that call to ReadNifti and deletes
/// this.
inline Result<NiftiImage> ReadNiftiStreamed(const std::string& path) {
  return ReadNifti(path);
}

}  // namespace neuroprint::nifti

#endif  // NEUROPRINT_NIFTI_NIFTI_STREAM_H_
