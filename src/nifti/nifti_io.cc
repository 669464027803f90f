#include "nifti/nifti_io.h"

#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>

#include "nifti/nifti_stream.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace neuroprint::nifti {
namespace {

// 1032:1 is deflate's maximum expansion (a 258-byte match costs at least
// two bits), so no gzip file, concatenated members included, inflates to
// more than this many bytes per compressed byte.
constexpr std::uint64_t kMaxDeflateRatio = 1032;

// Plaintext bytes discarded per read when skipping forward.
constexpr std::size_t kSkipChunk = 64u << 10;

// Applies a fired `nifti.decode_voxels` injection to decoded voxels:
// kError propagates, kCorrupt scrambles in place, kNaN poisons every value.
Status ApplyVoxelInjection(const fault::Injection& injection, float* voxels,
                           std::size_t count) {
  switch (injection.action) {
    case fault::Action::kNone:
      return Status::OK();
    case fault::Action::kError:
      return injection.status;
    case fault::Action::kCorrupt:
      fault::ScrambleBytes(injection.seed, voxels, count * sizeof(float));
      return Status::OK();
    case fault::Action::kNaN:
      std::fill(voxels, voxels + count,
                std::numeric_limits<float>::quiet_NaN());
      return Status::OK();
    case fault::Action::kTorn:
    case fault::Action::kCrash:
      return Status::Internal(
          std::string("fault action '") + fault::ActionName(injection.action) +
          "' targets the durable writers, not read paths");
  }
  return Status::OK();
}

// One forward pass over a .nii (plain ifstream) or .nii.gz
// (GzipStreamReader). Read fills as much of the request as the data
// holds; a short count means the data ended.
class ForwardSource {
 public:
  static Result<ForwardSource> Open(const std::string& path) {
    ForwardSource source;
    source.path_ = path;
    source.file_.open(path, std::ios::binary | std::ios::ate);
    if (!source.file_) return Status::IOError("cannot open: " + path);
    source.file_size_ = static_cast<std::uint64_t>(source.file_.tellg());
    source.file_.seekg(0);
    std::uint8_t magic[2] = {0, 0};
    source.file_.read(reinterpret_cast<char*>(magic), 2);
    if (source.file_.gcount() == 2 && magic[0] == 0x1f && magic[1] == 0x8b) {
      source.file_.close();
      auto gzip = GzipStreamReader::Open(path);
      if (!gzip.ok()) return gzip.status();
      source.gzip_.emplace(std::move(gzip).value());
    } else {
      source.file_.clear();
      source.file_.seekg(0);
    }
    return source;
  }

  bool gzipped() const { return gzip_.has_value(); }

  /// The most plaintext the file can hold: its size when raw, the
  /// deflate expansion bound when gzipped.
  std::uint64_t plaintext_bound() const {
    if (!gzipped()) return file_size_;
    constexpr std::uint64_t kMaxCompressed =
        std::numeric_limits<std::uint64_t>::max() / kMaxDeflateRatio;
    return std::min(file_size_, kMaxCompressed) * kMaxDeflateRatio;
  }

  Result<std::size_t> Read(std::uint8_t* out, std::size_t count) {
    if (!gzipped()) {
      file_.read(reinterpret_cast<char*>(out),
                 static_cast<std::streamsize>(count));
      if (file_.bad()) return Status::IOError("read failed: " + path_);
      return static_cast<std::size_t>(file_.gcount());
    }
    std::size_t filled = 0;
    while (filled < count) {
      auto got = gzip_->Read(out + filled, count - filled);
      if (!got.ok()) return got.status();
      if (*got == 0) break;
      filled += *got;
    }
    return filled;
  }

  /// Reads and discards up to `count` bytes; returns how many there were.
  Result<std::uint64_t> Skip(std::uint64_t count) {
    std::vector<std::uint8_t> scratch(
        static_cast<std::size_t>(std::min<std::uint64_t>(count, kSkipChunk)));
    std::uint64_t skipped = 0;
    while (skipped < count) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(scratch.size(), count - skipped));
      std::size_t got = 0;
      NP_ASSIGN_OR_RETURN(got, Read(scratch.data(), want));
      skipped += got;
      if (got < want) break;
    }
    return skipped;
  }

  /// For gzip, inflates whatever follows the voxel data so a damaged
  /// trailer (CRC, length, truncation) is CorruptData; raw files have
  /// nothing to check.
  Status CheckCleanEnd() {
    if (!gzipped()) return Status::OK();
    return Skip(std::numeric_limits<std::uint64_t>::max()).status();
  }

 private:
  ForwardSource() = default;

  std::string path_;
  std::ifstream file_;
  std::uint64_t file_size_ = 0;
  std::optional<GzipStreamReader> gzip_;
};

Status WriteBytes(const std::string& path, const std::vector<std::uint8_t>& bytes,
                  bool gzip) {
  if (gzip) {
    gzFile gz = gzopen(path.c_str(), "wb6");
    if (gz == nullptr) return Status::IOError("cannot open for write: " + path);
    std::size_t written = 0;
    while (written < bytes.size()) {
      const unsigned chunk = static_cast<unsigned>(
          std::min<std::size_t>(bytes.size() - written, 1u << 20));
      if (gzwrite(gz, bytes.data() + written, chunk) !=
          static_cast<int>(chunk)) {
        gzclose(gz);
        return Status::IOError("gzip write failed: " + path);
      }
      written += chunk;
    }
    if (gzclose(gz) != Z_OK) return Status::IOError("gzip close failed: " + path);
    return Status::OK();
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IOError("cannot open for write: " + path);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Voxel decoding

template <typename T>
double DecodeValue(const std::uint8_t* src, bool swap) {
  std::uint8_t buf[sizeof(T)];
  if (!swap) {
    std::memcpy(buf, src, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) buf[i] = src[sizeof(T) - 1 - i];
  }
  T value;
  std::memcpy(&value, buf, sizeof(T));
  return static_cast<double>(value);
}

// Decodes `count` voxels of `voxel_bytes` each, encoded per
// header.datatype (byte-swapped when `swap`), applying scl_slope /
// scl_inter, into out[0..count).
void DecodeVoxelSpan(const std::uint8_t* src, std::size_t count,
                     std::size_t voxel_bytes, const NiftiHeader& header,
                     bool swap, float* out) {
  // scl_slope == 0 means "no scaling" per the NIfTI spec.
  const double slope =
      header.scl_slope != 0.0f ? static_cast<double>(header.scl_slope) : 1.0;
  const double inter =
      header.scl_slope != 0.0f ? static_cast<double>(header.scl_inter) : 0.0;

  for (std::size_t i = 0; i < count; ++i, src += voxel_bytes) {
    double raw = 0.0;
    switch (header.datatype) {
      case DataType::kUint8:
        raw = static_cast<double>(*src);
        break;
      case DataType::kInt16:
        raw = DecodeValue<std::int16_t>(src, swap);
        break;
      case DataType::kInt32:
        raw = DecodeValue<std::int32_t>(src, swap);
        break;
      case DataType::kFloat32:
        raw = DecodeValue<float>(src, swap);
        break;
      case DataType::kFloat64:
        raw = DecodeValue<double>(src, swap);
        break;
    }
    out[i] = static_cast<float>(slope * raw + inter);
  }
}

// ---------------------------------------------------------------------------
// Voxel encoding

template <typename T>
void EncodeValue(double v, std::uint8_t* dst) {
  T value;
  if constexpr (std::is_integral_v<T>) {
    const double lo = static_cast<double>(std::numeric_limits<T>::min());
    const double hi = static_cast<double>(std::numeric_limits<T>::max());
    value = static_cast<T>(std::llround(std::clamp(v, lo, hi)));
  } else {
    value = static_cast<T>(v);
  }
  std::memcpy(dst, &value, sizeof(T));
}

// Chooses slope/inter so the data range maps onto the integer range.
void IntegerScaling(const std::vector<float>& data, double type_min,
                    double type_max, float& slope, float& inter) {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();
  for (float v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (data.empty() || hi <= lo) {
    slope = 1.0f;
    inter = data.empty() ? 0.0f : lo;
    return;
  }
  slope = static_cast<float>((static_cast<double>(hi) - static_cast<double>(lo)) /
                             (type_max - type_min));
  inter = static_cast<float>(static_cast<double>(lo) -
                             static_cast<double>(slope) * type_min);
}

}  // namespace

Result<NiftiImage> ReadNifti(const std::string& path) {
  NP_FAULT_POINT("nifti.read");
  Result<ForwardSource> opened = ForwardSource::Open(path);
  if (!opened.ok()) return opened.status();
  ForwardSource& source = *opened;

  std::vector<std::uint8_t> header_bytes(kNiftiHeaderSize);
  std::size_t header_read = 0;
  NP_ASSIGN_OR_RETURN(header_read,
                      source.Read(header_bytes.data(), header_bytes.size()));
  header_bytes.resize(header_read);  // Short: DecodeHeader reports it.
  bool swapped = false;
  Result<NiftiHeader> header_result = DecodeHeader(header_bytes, &swapped);
  if (!header_result.ok()) {
    // Damage to the gzip stream itself outranks what its header says.
    NP_RETURN_IF_ERROR(source.CheckCleanEnd());
    return header_result.status();
  }
  const NiftiHeader& header = *header_result;

  // DecodeHeader validated dim[], so the count cannot overflow, and
  // dims past the fourth are 1.
  const std::size_t count = *header.VoxelCount();
  const std::size_t voxel_bytes =
      static_cast<std::size_t>(*BitsPerVoxel(header.datatype)) / 8;
  const std::uint64_t data_offset =
      static_cast<std::uint64_t>(header.vox_offset);
  // Bound the header's claim by what the file can hold before allocating
  // anything for it.
  const std::uint64_t bound = source.plaintext_bound();
  if (data_offset > bound || count > (bound - data_offset) / voxel_bytes) {
    return Status::CorruptData(StrFormat(
        "NIfTI voxel data truncated: need %llu bytes at offset %llu, the "
        "%s file holds at most %llu",
        static_cast<unsigned long long>(count) * voxel_bytes,
        static_cast<unsigned long long>(data_offset),
        source.gzipped() ? "gzip" : "raw",
        static_cast<unsigned long long>(bound)));
  }
  std::uint64_t skipped = 0;
  NP_ASSIGN_OR_RETURN(skipped, source.Skip(data_offset - header_read));
  if (skipped != data_offset - header_read) {
    return Status::CorruptData(StrFormat(
        "NIfTI voxel data truncated: data ends at %llu bytes, before "
        "vox_offset %llu",
        static_cast<unsigned long long>(header_read + skipped),
        static_cast<unsigned long long>(data_offset)));
  }

  const std::size_t nx = static_cast<std::size_t>(header.dim[1]);
  const std::size_t ny = header.dim[0] >= 2 ? static_cast<std::size_t>(header.dim[2]) : 1;
  const std::size_t nz = header.dim[0] >= 3 ? static_cast<std::size_t>(header.dim[3]) : 1;
  const std::size_t nt = header.dim[0] >= 4 ? static_cast<std::size_t>(header.dim[4]) : 1;
  NiftiImage image;
  image.header = header;
  image.data = image::Volume4D(nx, ny, nz, nt);
  // One frame of encoded bytes at a time, decoded straight into place.
  const std::size_t frame_voxels = nx * ny * nz;
  std::vector<std::uint8_t> encoded(frame_voxels * voxel_bytes);
  for (std::size_t t = 0; t < nt; ++t) {
    std::size_t got = 0;
    NP_ASSIGN_OR_RETURN(got, source.Read(encoded.data(), encoded.size()));
    if (got != encoded.size()) {
      return Status::CorruptData(StrFormat(
          "NIfTI voxel data truncated: need %llu bytes at offset %llu, "
          "have %llu",
          static_cast<unsigned long long>(count) * voxel_bytes,
          static_cast<unsigned long long>(data_offset),
          static_cast<unsigned long long>(t * encoded.size() + got)));
    }
    DecodeVoxelSpan(encoded.data(), frame_voxels, voxel_bytes, header, swapped,
                    image.data.VolumePtr(t));
  }
  NP_RETURN_IF_ERROR(source.CheckCleanEnd());
  if (fault::Enabled()) {
    NP_RETURN_IF_ERROR(ApplyVoxelInjection(fault::Hit("nifti.decode_voxels"),
                                           image.data.data(),
                                           image.data.size()));
  }
  image.data.spacing().dx_mm = header.pixdim[1];
  image.data.spacing().dy_mm = header.pixdim[2];
  image.data.spacing().dz_mm = header.pixdim[3];
  image.data.spacing().tr_seconds = header.pixdim[4];
  return image;
}

Status WriteNifti(const std::string& path, const image::Volume4D& volume,
                  const WriteOptions& options) {
  if (volume.empty()) {
    return Status::InvalidArgument("WriteNifti: empty volume");
  }
  const Result<int> bits = BitsPerVoxel(options.datatype);
  if (!bits.ok()) return bits.status();

  NiftiHeader header;
  const bool four_d = volume.nt() > 1;
  header.dim = {static_cast<std::int16_t>(four_d ? 4 : 3),
                static_cast<std::int16_t>(volume.nx()),
                static_cast<std::int16_t>(volume.ny()),
                static_cast<std::int16_t>(volume.nz()),
                static_cast<std::int16_t>(volume.nt()),
                1, 1, 1};
  header.datatype = options.datatype;
  header.pixdim = {1.0f,
                   static_cast<float>(volume.spacing().dx_mm),
                   static_cast<float>(volume.spacing().dy_mm),
                   static_cast<float>(volume.spacing().dz_mm),
                   static_cast<float>(volume.spacing().tr_seconds),
                   1.0f, 1.0f, 1.0f};
  header.description = options.description;

  float slope = 1.0f, inter = 0.0f;
  if (options.integer_autoscale) {
    switch (options.datatype) {
      case DataType::kUint8:
        IntegerScaling(volume.flat(), 0.0, 255.0, slope, inter);
        break;
      case DataType::kInt16:
        IntegerScaling(volume.flat(), -32768.0, 32767.0, slope, inter);
        break;
      case DataType::kInt32:
        IntegerScaling(volume.flat(), -2147483648.0, 2147483647.0, slope, inter);
        break;
      case DataType::kFloat32:
      case DataType::kFloat64:
        break;
    }
  }
  header.scl_slope = slope;
  header.scl_inter = inter;

  const std::size_t voxel_bytes = static_cast<std::size_t>(*bits) / 8;
  std::vector<std::uint8_t> bytes = EncodeHeader(header);
  bytes.resize(352, 0);  // 4 bytes of extension flags (all zero).
  const std::size_t data_start = bytes.size();
  bytes.resize(data_start + volume.size() * voxel_bytes);

  const double inv_slope =
      slope != 0.0f ? 1.0 / static_cast<double>(slope) : 1.0;
  std::uint8_t* dst = bytes.data() + data_start;
  for (std::size_t i = 0; i < volume.size(); ++i, dst += voxel_bytes) {
    const double stored =
        (static_cast<double>(volume.flat()[i]) - static_cast<double>(inter)) *
        inv_slope;
    switch (options.datatype) {
      case DataType::kUint8:
        EncodeValue<std::uint8_t>(stored, dst);
        break;
      case DataType::kInt16:
        EncodeValue<std::int16_t>(stored, dst);
        break;
      case DataType::kInt32:
        EncodeValue<std::int32_t>(stored, dst);
        break;
      case DataType::kFloat32:
        EncodeValue<float>(stored, dst);
        break;
      case DataType::kFloat64:
        EncodeValue<double>(stored, dst);
        break;
    }
  }

  bool gzip = false;
  switch (options.compression) {
    case WriteOptions::Compression::kAuto:
      gzip = EndsWith(path, ".gz");
      break;
    case WriteOptions::Compression::kNever:
      gzip = false;
      break;
    case WriteOptions::Compression::kAlways:
      gzip = true;
      break;
  }
  return WriteBytes(path, bytes, gzip);
}

Status WriteNifti3D(const std::string& path, const image::Volume3D& volume,
                    const WriteOptions& options) {
  image::Volume4D run(volume.nx(), volume.ny(), volume.nz(), 1);
  std::copy(volume.data(), volume.data() + volume.size(), run.data());
  run.spacing() = volume.spacing();
  return WriteNifti(path, run, options);
}

}  // namespace neuroprint::nifti
