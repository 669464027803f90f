// neuroprint_attack: command-line de-anonymization attack on directories
// of NIfTI scans.
//
// Usage:
//   neuroprint_attack --atlas atlas.nii.gz
//                     --known dir_with_identified_scans
//                     --anonymous dir_with_deidentified_scans
//                     [--features N] [--output matches.csv]
//                     [--no-motion-correction] [--task-filter]
//
// Every *.nii / *.nii.gz file in each directory is one subject's scan;
// the file stem is used as the subject identifier in the known set. The
// tool preprocesses each scan (Figure-4 pipeline), builds connectomes
// over the atlas, fits leverage-score feature selection on the known
// set, and prints the best identity match (with its correlation score)
// for every anonymous scan. A scan that cannot be read or processed is
// skipped and named on stderr; the rest of its directory still counts. A
// frame that cannot be registered keeps the identity transform, and its
// scan is named as degraded.
// --features takes a positive integer.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "atlas/atlas_io.h"
#include "connectome/connectome.h"
#include "connectome/group_matrix.h"
#include "connectome/group_matrix_io.h"
#include "core/attack.h"
#include "core/signature_map.h"
#include "nifti/nifti_io.h"
#include "preprocess/pipeline.h"
#include "util/batch.h"
#include "util/crc32c.h"
#include "util/csv_writer.h"
#include "util/string_util.h"
#include "util/trace.h"

using namespace neuroprint;
namespace fs = std::filesystem;

namespace {

struct CliOptions {
  std::string atlas_path;
  std::string known_dir;
  std::string anonymous_dir;
  std::string output_csv;
  std::string signature_map_path;
  std::string cache_dir;  // Cache preprocessed feature matrices here.
  std::size_t num_features = 100;
  bool motion_correction = true;
  bool task_filter = false;      // High-pass instead of resting band-pass.
  bool temporal_filter = true;   // --no-temporal-filter disables both.
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: neuroprint_attack --atlas FILE --known DIR --anonymous DIR\n"
      "                         [--features N] [--output FILE.csv]\n"
      "                         [--no-motion-correction] [--task-filter]\n"
      "                         [--no-temporal-filter]\n"
      "                         [--signature-map MAP.nii.gz]\n"
      "                         [--cache-dir DIR]\n");
}

// Parses a positive decimal integer: no sign, no trailing characters.
bool ParsePositive(const char* text, std::size_t* value) {
  const char* end = text + std::strlen(text);
  std::size_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(text, end, parsed);
  if (ec != std::errc() || ptr != end || parsed == 0) return false;
  *value = parsed;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--atlas") {
      const char* v = next();
      if (v == nullptr) return false;
      options.atlas_path = v;
    } else if (arg == "--known") {
      const char* v = next();
      if (v == nullptr) return false;
      options.known_dir = v;
    } else if (arg == "--anonymous") {
      const char* v = next();
      if (v == nullptr) return false;
      options.anonymous_dir = v;
    } else if (arg == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      options.output_csv = v;
    } else if (arg == "--features") {
      const char* v = next();
      if (v == nullptr || !ParsePositive(v, &options.num_features)) {
        std::fprintf(stderr,
                     "--features: expected a positive integer, got '%s'\n",
                     v == nullptr ? "" : v);
        return false;
      }
    } else if (arg == "--no-motion-correction") {
      options.motion_correction = false;
    } else if (arg == "--task-filter") {
      options.task_filter = true;
    } else if (arg == "--no-temporal-filter") {
      options.temporal_filter = false;
    } else if (arg == "--signature-map") {
      const char* v = next();
      if (v == nullptr) return false;
      options.signature_map_path = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options.cache_dir = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options.atlas_path.empty() && !options.known_dir.empty() &&
         !options.anonymous_dir.empty();
}

bool IsNiftiFile(const fs::path& path) {
  const std::string name = path.filename().string();
  return EndsWith(name, ".nii") || EndsWith(name, ".nii.gz");
}

std::string SubjectIdFromPath(const fs::path& path) {
  std::string name = path.filename().string();
  if (EndsWith(name, ".nii.gz")) return name.substr(0, name.size() - 7);
  if (EndsWith(name, ".nii")) return name.substr(0, name.size() - 4);
  return name;
}

// Lists the .nii/.nii.gz files of `dir`, sorted by name.
Result<std::vector<fs::path>> ListScans(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && IsNiftiFile(entry.path())) {
      files.push_back(entry.path());
    }
  }
  if (ec) return Status::IOError("cannot list directory: " + dir);
  if (files.empty()) {
    return Status::NotFound("no .nii/.nii.gz files in " + dir);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The cache file of one scan directory: `tag` plus a CRC-32C of the
// canonical directory path, each scan's name and size, the pipeline flags
// and the pipeline version, so another directory, changed scans, other
// flags or a build whose preprocessing differs miss the cache.
std::string CachePath(const CliOptions& options, const std::string& dir,
                      const std::vector<fs::path>& files, const char* tag) {
  std::error_code ec;
  const fs::path canonical = fs::canonical(dir, ec);
  std::string key = ec ? dir : canonical.string();
  for (const fs::path& file : files) {
    const std::uintmax_t size = fs::file_size(file, ec);
    key += '\0' + file.filename().string() + '\0' +
           std::to_string(ec ? 0 : size);
  }
  key.push_back('\0');
  key += StrFormat(
      "pipeline_version=%d motion_correction=%d task_filter=%d "
      "temporal_filter=%d",
      preprocess::kPipelineVersion, options.motion_correction,
      options.task_filter, options.temporal_filter);
  return StrFormat("%s/%s-%08x.npgm", options.cache_dir.c_str(), tag,
                   crc32c::Value(key.data(), key.size()));
}

// Runs every scan through the scan-to-column path under skip-and-report
// and assembles the survivors' group matrix. Each failed scan, and each
// kept scan with frames registered by the identity fallback, is named on
// stderr.
Result<connectome::GroupMatrix> ProcessDirectory(
    const std::vector<fs::path>& files, const atlas::Atlas& atlas,
    preprocess::PipelineConfig pipeline) {
  pipeline.failure_policy = FailurePolicy::SkipAndReport();
  std::vector<std::string> ids;
  for (const fs::path& file : files) ids.push_back(SubjectIdFromPath(file));
  std::vector<std::size_t> frames(files.size(), 0);
  const preprocess::RunSource source =
      [&](std::size_t i) -> Result<image::Volume4D> {
    auto image = nifti::ReadNifti(files[i].string());
    if (!image.ok()) return image.status();
    frames[i] = image->data.nt();
    return std::move(image->data);
  };
  std::vector<linalg::Vector> columns;
  std::vector<std::string> survivor_ids;
  const preprocess::ColumnSink sink = [&](std::size_t i,
                                          linalg::Vector column) {
    columns.push_back(std::move(column));
    survivor_ids.push_back(ids[i]);
    std::printf("  processed %s (%zu frames)\n", files[i].filename().c_str(),
                frames[i]);
    return Status::OK();
  };
  auto report = preprocess::RunScansToColumns(source, files.size(), ids,
                                              atlas, pipeline, sink);
  if (!report.ok()) return report.status();
  for (const BatchItemReport& item : report->failed) {
    std::fprintf(stderr, "  skipping %s: %s\n", files[item.index].c_str(),
                 item.status.ToString().c_str());
  }
  for (const BatchItemReport& item : report->degraded) {
    std::fprintf(stderr, "  degraded %s: %s\n", files[item.index].c_str(),
                 StrJoin(item.degradations, ", ").c_str());
  }
  return connectome::GroupMatrix::FromFeatureColumns(columns, survivor_ids);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, options)) {
    PrintUsage();
    return 2;
  }

  auto atlas = atlas::ReadAtlasNifti(options.atlas_path);
  if (!atlas.ok()) {
    std::fprintf(stderr, "atlas: %s\n", atlas.status().ToString().c_str());
    return 1;
  }
  std::printf("atlas: %zu regions on a %zux%zux%zu grid\n",
              atlas->num_regions(), atlas->nx(), atlas->ny(), atlas->nz());

  preprocess::PipelineConfig pipeline = options.task_filter
                                            ? preprocess::TaskConfig()
                                            : preprocess::RestingStateConfig();
  pipeline.motion_correction = options.motion_correction;
  pipeline.registration.sample_stride = 2;
  if (!options.temporal_filter) {
    pipeline.temporal_filter = preprocess::TemporalFilter::kNone;
  }

  // Preprocessing dominates runtime, so feature matrices can be cached:
  // with --cache-dir, a directory whose cache file (named by CachePath)
  // exists is loaded instead of reprocessed.
  auto load_or_process =
      [&](const std::string& dir,
          const char* tag) -> Result<connectome::GroupMatrix> {
    auto files = ListScans(dir);
    if (!files.ok()) return files.status();
    const std::string cache_path =
        options.cache_dir.empty() ? std::string()
                                  : CachePath(options, dir, *files, tag);
    if (!cache_path.empty()) {
      auto cached = connectome::ReadGroupMatrix(cache_path);
      if (cached.ok()) {
        std::printf("loaded %zu cached subjects from %s\n",
                    cached->num_subjects(), cache_path.c_str());
        return cached;
      }
    }
    std::printf("processing scans in %s:\n", dir.c_str());
    auto group = ProcessDirectory(*files, *atlas, pipeline);
    if (group.ok() && !cache_path.empty()) {
      // A cache that cannot be written costs only the next run's time, so
      // it is a warning, not a failure.
      const Status cached = connectome::WriteGroupMatrix(cache_path, *group);
      if (cached.ok()) {
        std::printf("cached features to %s\n", cache_path.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot write feature cache %s: %s\n",
                     cache_path.c_str(), cached.ToString().c_str());
      }
    }
    return group;
  };

  auto known = load_or_process(options.known_dir, "known");
  if (!known.ok()) {
    std::fprintf(stderr, "known set: %s\n", known.status().ToString().c_str());
    return 1;
  }
  auto anonymous = load_or_process(options.anonymous_dir, "anonymous");
  if (!anonymous.ok()) {
    std::fprintf(stderr, "anonymous set: %s\n",
                 anonymous.status().ToString().c_str());
    return 1;
  }

  core::AttackOptions attack_options;
  attack_options.num_features = options.num_features;
  auto attack = core::DeanonymizationAttack::Fit(*known, attack_options);
  if (!attack.ok()) {
    std::fprintf(stderr, "fit: %s\n", attack.status().ToString().c_str());
    return 1;
  }
  auto result = attack->Identify(*anonymous);
  if (!result.ok()) {
    std::fprintf(stderr, "identify: %s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-28s %-28s %s\n", "anonymous scan", "predicted identity",
              "correlation");
  CsvWriter csv;
  csv.SetHeader({"anonymous_scan", "predicted_identity", "correlation"});
  for (std::size_t j = 0; j < anonymous->num_subjects(); ++j) {
    const std::size_t match = result->predicted_index[j];
    const double score = result->similarity(match, j);
    std::printf("%-28s %-28s %.4f\n", anonymous->subject_ids()[j].c_str(),
                result->predicted_ids[j].c_str(), score);
    csv.AddRow({anonymous->subject_ids()[j], result->predicted_ids[j],
                StrFormat("%.4f", score)});
  }
  if (!options.signature_map_path.empty()) {
    // Render the per-region signature importance as a NIfTI heat map —
    // the localization a defender needs (paper, Discussion).
    auto importance = core::ComputeRegionImportance(
        attack->selected_features(), attack->leverage_scores(),
        atlas->num_regions());
    if (importance.ok()) {
      auto map = core::RenderSignatureMap(*importance, *atlas);
      if (map.ok()) {
        const Status written =
            nifti::WriteNifti3D(options.signature_map_path, *map);
        if (written.ok()) {
          std::printf("\nsignature map written to %s\n",
                      options.signature_map_path.c_str());
        } else {
          std::fprintf(stderr, "signature map: %s\n",
                       written.ToString().c_str());
        }
      }
    }
  }
  if (!options.output_csv.empty()) {
    const Status written = csv.WriteFile(options.output_csv);
    if (!written.ok()) {
      std::fprintf(stderr, "output: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nmatches written to %s\n", options.output_csv.c_str());
  }
  // NEUROPRINT_TRACE=1 (or =path) dumps the collected pipeline/attack
  // spans as chrome://tracing JSON.
  auto trace_written = trace::WriteEnvTraceIfRequested();
  if (!trace_written.ok()) {
    std::fprintf(stderr, "trace: %s\n",
                 trace_written.status().ToString().c_str());
  } else if (!trace_written->empty()) {
    std::printf("\ntrace written to %s\n", trace_written->c_str());
  }
  return 0;
}
