#include "nifti/nifti_stream.h"

#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/string_util.h"

namespace neuroprint::nifti {
namespace {

// Input window for the chunked inflater: large enough that syscall
// overhead is negligible, small enough that the decoder's resident set
// is independent of the compressed file size.
constexpr std::size_t kInputChunk = 64u << 10;

}  // namespace

GzipStreamReader::GzipStreamReader(GzipStreamReader&& other) noexcept =
    default;

GzipStreamReader& GzipStreamReader::operator=(
    GzipStreamReader&& other) noexcept {
  if (this != &other) {
    // Swap, so `other`'s destructor releases our previous inflate state.
    std::swap(path_, other.path_);
    std::swap(file_, other.file_);
    std::swap(strm_, other.strm_);
    std::swap(input_, other.input_);
    std::swap(input_pos_, other.input_pos_);
    std::swap(input_len_, other.input_len_);
    std::swap(file_exhausted_, other.file_exhausted_);
    std::swap(finished_, other.finished_);
    std::swap(compressed_consumed_, other.compressed_consumed_);
    std::swap(decoded_bytes_, other.decoded_bytes_);
  }
  return *this;
}

GzipStreamReader::~GzipStreamReader() {
  if (strm_ != nullptr) inflateEnd(strm_.get());
}

Result<GzipStreamReader> GzipStreamReader::Open(const std::string& path) {
  GzipStreamReader reader;
  reader.path_ = path;
  reader.file_.open(path, std::ios::binary);
  if (!reader.file_) {
    return Status::IOError("cannot open gzip file: " + path);
  }
  reader.strm_ = std::make_unique<z_stream_s>();
  std::memset(reader.strm_.get(), 0, sizeof(z_stream_s));
  // 15 + 16: maximum inflate window, gzip wrapper required.
  if (inflateInit2(reader.strm_.get(), 15 + 16) != Z_OK) {
    reader.strm_.reset();
    return Status::Internal("inflateInit failed: " + path);
  }
  reader.input_.resize(kInputChunk);
  return reader;
}

Status GzipStreamReader::FillInput(std::size_t want) {
  if (input_len_ - input_pos_ >= want || file_exhausted_) {
    return Status::OK();
  }
  if (input_pos_ > 0) {
    std::memmove(input_.data(), input_.data() + input_pos_,
                 input_len_ - input_pos_);
    input_len_ -= input_pos_;
    input_pos_ = 0;
  }
  while (input_len_ < std::max<std::size_t>(want, 1) && !file_exhausted_) {
    file_.read(reinterpret_cast<char*>(input_.data() + input_len_),
               static_cast<std::streamsize>(input_.size() - input_len_));
    const std::streamsize got = file_.gcount();
    if (got > 0) input_len_ += static_cast<std::size_t>(got);
    if (file_.eof()) {
      file_exhausted_ = true;
      break;
    }
    if (!file_) return Status::IOError("read failed: " + path_);
    if (got == 0) {
      file_exhausted_ = true;
      break;
    }
  }
  return Status::OK();
}

Result<std::size_t> GzipStreamReader::Read(std::uint8_t* out,
                                           std::size_t count) {
  if (count == 0 || finished_) return std::size_t{0};
  std::size_t produced = 0;
  while (produced < count && !finished_) {
    NP_RETURN_IF_ERROR(FillInput(1));
    const std::size_t avail_before = input_len_ - input_pos_;
    strm_->next_in = input_.data() + input_pos_;
    strm_->avail_in = static_cast<unsigned>(avail_before);
    strm_->next_out = out + produced;
    strm_->avail_out = static_cast<unsigned>(std::min<std::size_t>(
        count - produced, std::numeric_limits<unsigned>::max()));
    const unsigned out_before = strm_->avail_out;

    const int ret = inflate(strm_.get(), Z_NO_FLUSH);

    const std::size_t consumed = avail_before - strm_->avail_in;
    input_pos_ += consumed;
    compressed_consumed_ += consumed;
    const std::size_t got = out_before - strm_->avail_out;
    produced += got;
    decoded_bytes_ += got;

    if (ret == Z_STREAM_END) {
      // Concatenated gzip members decode seamlessly; a clean end followed
      // by anything that is not another member is the end of the stream
      // (trailing garbage ignored, matching gzread).
      NP_RETURN_IF_ERROR(FillInput(2));
      const std::size_t left = input_len_ - input_pos_;
      if (left >= 2 && input_[input_pos_] == 0x1f &&
          input_[input_pos_ + 1] == 0x8b) {
        if (inflateReset(strm_.get()) != Z_OK) {
          return Status::Internal("inflateReset failed: " + path_);
        }
        continue;
      }
      finished_ = true;
      break;
    }
    if (ret == Z_OK || ret == Z_BUF_ERROR) {
      if (got == 0 && strm_->avail_in == 0 && file_exhausted_ &&
          input_pos_ == input_len_) {
        // Mid-member end of file: the member never reached Z_STREAM_END.
        return Status::CorruptData(StrFormat(
            "gzip stream truncated: %llu compressed bytes consumed, %llu "
            "bytes decoded before unexpected end of %s",
            static_cast<unsigned long long>(compressed_consumed_),
            static_cast<unsigned long long>(decoded_bytes_), path_.c_str()));
      }
      continue;
    }
    return Status::CorruptData(StrFormat(
        "gzip decompression failed after %llu compressed bytes (%llu bytes "
        "decoded): %s",
        static_cast<unsigned long long>(compressed_consumed_),
        static_cast<unsigned long long>(decoded_bytes_), path_.c_str()));
  }
  return produced;
}

}  // namespace neuroprint::nifti
