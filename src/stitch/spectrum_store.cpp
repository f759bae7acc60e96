#include "stitch/spectrum_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "fft/types.hpp"
#include "metrics/wellknown.hpp"

namespace hs::stitch {

namespace fs = std::filesystem;

namespace {

// "HSSF" / "HSPR" read as little-endian u32s. Frames share the journal's
// layout: [magic u32][payload length u32][crc32c(payload) u32][payload].
constexpr std::uint32_t kSpectrumMagic = 0x46535348u;
constexpr std::uint32_t kPairMagic = 0x52505348u;
constexpr std::size_t kFrameHeader = 12;
// digest u64 + height u32 + width u32 + real u8 + tier u8 + numerics u16 +
// bin_count u64, ahead of the raw bins. The numerics field is
// fft::kNumericsVersion (0 in stores written before it existed): a frame or
// pair record of another version is stale, not corrupt, and recomputes.
constexpr std::size_t kSpectrumHeaderBytes = 28;
constexpr std::size_t kPairPayloadBytes = 64;
// A garbage length field must not make recovery allocate gigabytes; 256 MiB
// covers a 4Kx4K complex spectrum with room to spare.
constexpr std::uint32_t kMaxPayload = 256u << 20;
constexpr std::size_t kSimdTierCount = 3;  // common::SimdTier vocabulary

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xFF);
  bytes[1] = static_cast<char>((v >> 8) & 0xFF);
  bytes[2] = static_cast<char>((v >> 16) & 0xFF);
  bytes[3] = static_cast<char>((v >> 24) & 0xFF);
  out.append(bytes, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t get_u16(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string frame_bytes(std::uint32_t magic, const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  put_u32(frame, magic);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32c(payload));
  frame += payload;
  return frame;
}

std::string spectrum_payload(const SpectrumKey& key,
                             const std::vector<fft::Complex>& bins) {
  std::string payload;
  payload.reserve(kSpectrumHeaderBytes + bins.size() * sizeof(fft::Complex));
  put_u64(payload, key.digest);
  put_u32(payload, key.height);
  put_u32(payload, key.width);
  payload.push_back(key.real_fft ? 1 : 0);
  payload.push_back(static_cast<char>(key.tier));
  put_u16(payload, fft::kNumericsVersion);
  put_u64(payload, bins.size());
  // Raw IEEE bytes round-trip bit-exactly, which is what keeps spill hits
  // inside the backends' bit-identity guarantees.
  payload.append(reinterpret_cast<const char*>(bins.data()),
                 bins.size() * sizeof(fft::Complex));
  return payload;
}

enum class FrameCheck { kValid, kStale, kCorrupt };

/// Full-frame validation: magic, length, CRC32C, and a self-consistent
/// header. Fills *key and *bin_count when valid; an intact frame of another
/// FFT numerics version is kStale.
FrameCheck validate_spectrum_file(const std::string& contents,
                                  SpectrumKey* key, std::uint64_t* bin_count) {
  if (contents.size() < kFrameHeader + kSpectrumHeaderBytes) {
    return FrameCheck::kCorrupt;
  }
  if (get_u32(contents.data()) != kSpectrumMagic) return FrameCheck::kCorrupt;
  const std::uint32_t len = get_u32(contents.data() + 4);
  if (len > kMaxPayload || kFrameHeader + len != contents.size()) {
    return FrameCheck::kCorrupt;
  }
  if (crc32c(contents.data() + kFrameHeader, std::size_t{len}) !=
      get_u32(contents.data() + 8)) {
    return FrameCheck::kCorrupt;
  }
  const char* p = contents.data() + kFrameHeader;
  key->digest = get_u64(p);
  key->height = get_u32(p + 8);
  key->width = get_u32(p + 12);
  key->real_fft = p[16] != 0;
  const auto tier = static_cast<unsigned char>(p[17]);
  if (tier >= kSimdTierCount) return FrameCheck::kCorrupt;
  key->tier = static_cast<common::SimdTier>(tier);
  *bin_count = get_u64(p + 20);
  const std::size_t bin_bytes = len - kSpectrumHeaderBytes;
  if (bin_bytes % sizeof(fft::Complex) != 0 ||
      *bin_count != bin_bytes / sizeof(fft::Complex)) {
    return FrameCheck::kCorrupt;
  }
  return get_u16(p + 18) == fft::kNumericsVersion ? FrameCheck::kValid
                                                  : FrameCheck::kStale;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return false;
  }
  out->resize(static_cast<std::size_t>(size));
  std::fseek(file, 0, SEEK_SET);
  const std::size_t got =
      size == 0 ? 0 : std::fread(out->data(), 1, out->size(), file);
  std::fclose(file);
  return got == out->size();
}

/// Durable whole-file write: everything or nothing reaches `path`.
bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
      std::fflush(file) == 0 && ::fsync(fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  return wrote && closed;
}

void fsync_dir(const std::string& dir) {
  // Best effort: a rename that survives only in the directory's page cache
  // is still consistent on replay (the old frame or the new one, never half).
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

SpectrumStore::SpectrumStore(Config config)
    : config_(std::move(config)),
      metric_hits_(metrics::wellknown::spill_hits()),
      metric_misses_(metrics::wellknown::spill_misses()),
      metric_bytes_written_(metrics::wellknown::spill_bytes_written()),
      metric_bytes_read_(metrics::wellknown::spill_bytes_read()),
      metric_corrupt_(metrics::wellknown::spill_corrupt_frames()),
      metric_write_failures_(metrics::wellknown::spill_write_failures()),
      metric_frames_(metrics::wellknown::spill_frames()) {
  HS_REQUIRE(!config_.dir.empty(), "spill dir: must not be empty");
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw IoError("cannot create spill dir " + config_.dir + ": " +
                  ec.message());
  }
  recover();
  const std::string log = pair_log_path();
  pair_log_ = std::fopen(log.c_str(), "ab");
  if (pair_log_ == nullptr) throw IoError("cannot open pair log: " + log);
}

SpectrumStore::~SpectrumStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pair_log_ != nullptr) {
    std::fflush(pair_log_);
    ::fsync(fileno(pair_log_));
    std::fclose(pair_log_);
    pair_log_ = nullptr;
  }
  metric_frames_.add(-static_cast<std::int64_t>(index_.size()));
}

void SpectrumStore::recover() {
  // Startup GC + warm-start index: orphaned .tmp files (a crash between
  // write and rename) are deleted, every .spec frame is fully validated
  // (corrupt ones deleted and counted — they must recompute, never load;
  // stale-numerics ones deleted too), and the pair log replays up to its
  // first damaged record, skipping stale ones.
  std::vector<std::string> tmp_files;
  std::vector<std::string> spectrum_files;
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp")) {
      tmp_files.push_back(entry.path().string());
    } else if (name.ends_with(".spec")) {
      spectrum_files.push_back(entry.path().string());
    }
  }
  for (const std::string& path : tmp_files) {
    if (std::remove(path.c_str()) == 0) ++stats_.gc_removed;
  }
  for (const std::string& path : spectrum_files) {
    std::string contents;
    SpectrumKey key;
    std::uint64_t bin_count = 0;
    const FrameCheck check =
        read_file(path, &contents)
            ? validate_spectrum_file(contents, &key, &bin_count)
            : FrameCheck::kCorrupt;
    if (check == FrameCheck::kValid) {
      if (index_.emplace(key, FrameInfo{path, bin_count}).second) {
        metric_frames_.add(1);
        continue;
      }
    } else if (check == FrameCheck::kStale) {
      ++stats_.stale_records;
    } else {
      ++stats_.corrupt_frames;
      metric_corrupt_.add();
    }
    // Corrupt, stale, unreadable, or a duplicate of an already-indexed key.
    if (std::remove(path.c_str()) == 0) ++stats_.gc_removed;
  }
  stats_.spectrum_frames = index_.size();
  replay_pair_log();
}

void SpectrumStore::replay_pair_log() {
  const std::string path = pair_log_path();
  std::string contents;
  if (!read_file(path, &contents)) return;  // absent: fresh store
  std::size_t offset = 0;
  while (contents.size() - offset >= kFrameHeader + kPairPayloadBytes) {
    const char* p = contents.data() + offset;
    if (get_u32(p) != kPairMagic) break;
    if (get_u32(p + 4) != kPairPayloadBytes) break;
    if (crc32c(p + kFrameHeader, kPairPayloadBytes) != get_u32(p + 8)) break;
    const char* q = p + kFrameHeader;
    PairKey key;
    key.digest_reference = get_u64(q);
    key.digest_moved = get_u64(q + 8);
    key.height = get_u32(q + 16);
    key.width = get_u32(q + 20);
    key.real_fft = q[24] != 0;
    const auto tier = static_cast<unsigned char>(q[25]);
    if (tier >= kSimdTierCount) break;
    offset += kFrameHeader + kPairPayloadBytes;
    if (get_u16(q + 26) != fft::kNumericsVersion) {
      // Intact but computed by other FFT numerics: skip it (the pair
      // recomputes and appends a current record), keep replaying.
      ++stats_.stale_records;
      continue;
    }
    key.tier = static_cast<common::SimdTier>(tier);
    key.peak_candidates = get_u32(q + 28);
    key.min_overlap_px = static_cast<std::int64_t>(get_u64(q + 32));
    Translation value;
    value.x = static_cast<std::int64_t>(get_u64(q + 40));
    value.y = static_cast<std::int64_t>(get_u64(q + 48));
    const std::uint64_t corr_bits = get_u64(q + 56);
    std::memcpy(&value.correlation, &corr_bits, sizeof(corr_bits));
    pairs_[key] = value;
  }
  if (offset < contents.size()) {
    // Torn or bit-flipped tail: count it, cut it, keep the valid prefix —
    // the lost pairs recompute, a damaged one never replays.
    ++stats_.corrupt_frames;
    metric_corrupt_.add();
    ::truncate(path.c_str(), static_cast<off_t>(offset));
  }
  stats_.pairs = pairs_.size();
}

bool SpectrumStore::put(const SpectrumKey& key,
                        const std::vector<fft::Complex>& bins) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) != index_.end()) return true;  // content-addressed
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillWrite, key.digest)) {
    // Simulated ENOSPC/EIO: drop the spill, keep the job alive — the cache
    // degrades to memory-only for this spectrum.
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  const std::string frame = frame_bytes(kSpectrumMagic,
                                        spectrum_payload(key, bins));
  const std::string path = frame_path(key);
  const std::string tmp = path + ".tmp";
  if (!write_file(tmp, frame)) {
    std::remove(tmp.c_str());
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  fault::Corruption damage;
  if (config_.faults != nullptr &&
      config_.faults->corruption_point(fault::Site::kSpillWrite, &damage)) {
    // Short write / bit rot lands in the frame just written; load() and
    // recover() must detect it via CRC and recompute, never trust it.
    fault::apply_corruption(tmp, damage);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  fsync_dir(config_.dir);
  index_.emplace(key, FrameInfo{path, bins.size()});
  stats_.spectrum_frames = index_.size();
  metric_frames_.add(1);
  stats_.bytes_written += frame.size();
  metric_bytes_written_.add(static_cast<std::int64_t>(frame.size()));
  return true;
}

SpectrumStore::SpectrumPtr SpectrumStore::load(const SpectrumKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto miss = [&] {
    ++stats_.misses;
    metric_misses_.add();
  };
  auto it = index_.find(key);
  if (it == index_.end()) {
    miss();
    return nullptr;
  }
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillRead, key.digest)) {
    miss();  // transient I/O error: recompute now, keep the frame on disk
    return nullptr;
  }
  std::string contents;
  SpectrumKey parsed;
  std::uint64_t bin_count = 0;
  const bool ok = read_file(it->second.path, &contents) &&
                  validate_spectrum_file(contents, &parsed, &bin_count) ==
                      FrameCheck::kValid &&
                  parsed == key;
  if (!ok) {
    // Damaged or unreadable frame: delete it and demote to a miss — the
    // spectrum recomputes from the tile, a wrong table is impossible.
    std::remove(it->second.path.c_str());
    index_.erase(it);
    stats_.spectrum_frames = index_.size();
    metric_frames_.add(-1);
    ++stats_.corrupt_frames;
    metric_corrupt_.add();
    miss();
    return nullptr;
  }
  auto bins = std::make_shared<std::vector<fft::Complex>>(
      static_cast<std::size_t>(bin_count));
  std::memcpy(bins->data(), contents.data() + kFrameHeader + kSpectrumHeaderBytes,
              bins->size() * sizeof(fft::Complex));
  ++stats_.hits;
  metric_hits_.add();
  stats_.bytes_read += contents.size();
  metric_bytes_read_.add(static_cast<std::int64_t>(contents.size()));
  return bins;
}

bool SpectrumStore::contains(const SpectrumKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(key) != index_.end();
}

void SpectrumStore::put_pair(const PairKey& key, const Translation& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pairs_.find(key) != pairs_.end()) return;  // first writer wins
  if (config_.faults != nullptr &&
      config_.faults->should_fail(fault::Site::kSpillWrite,
                                  key.digest_reference ^ key.digest_moved)) {
    ++stats_.write_failures;
    metric_write_failures_.add();
    return;
  }
  if (append_pair_locked(key, value)) {
    pairs_.emplace(key, value);
    stats_.pairs = pairs_.size();
  }
}

bool SpectrumStore::append_pair_locked(const PairKey& key,
                                       const Translation& value) {
  if (pair_log_ == nullptr) return false;
  std::string payload;
  payload.reserve(kPairPayloadBytes);
  put_u64(payload, key.digest_reference);
  put_u64(payload, key.digest_moved);
  put_u32(payload, key.height);
  put_u32(payload, key.width);
  payload.push_back(key.real_fft ? 1 : 0);
  payload.push_back(static_cast<char>(key.tier));
  put_u16(payload, fft::kNumericsVersion);
  put_u32(payload, key.peak_candidates);
  put_u64(payload, static_cast<std::uint64_t>(key.min_overlap_px));
  put_u64(payload, static_cast<std::uint64_t>(value.x));
  put_u64(payload, static_cast<std::uint64_t>(value.y));
  std::uint64_t corr_bits = 0;
  std::memcpy(&corr_bits, &value.correlation, sizeof(corr_bits));
  put_u64(payload, corr_bits);
  const std::string frame = frame_bytes(kPairMagic, payload);
  std::fseek(pair_log_, 0, SEEK_END);
  const long offset = std::ftell(pair_log_);
  if (std::fwrite(frame.data(), 1, frame.size(), pair_log_) != frame.size() ||
      std::fflush(pair_log_) != 0) {
    ++stats_.write_failures;
    metric_write_failures_.add();
    return false;
  }
  stats_.bytes_written += frame.size();
  metric_bytes_written_.add(static_cast<std::int64_t>(frame.size()));
  fault::Corruption damage;
  if (config_.faults != nullptr && offset >= 0 &&
      config_.faults->corruption_point(fault::Site::kSpillWrite, &damage)) {
    // Damage the record just appended (at_byte is frame-relative, matching
    // the journal's convention). This process keeps its in-memory copy;
    // the next recover() detects the damage and truncates the tail.
    fault::Corruption at = damage;
    at.at_byte += static_cast<std::uint64_t>(offset);
    fault::apply_corruption(pair_log_path(), at);
  }
  return true;
}

bool SpectrumStore::load_pair(const PairKey& key, Translation* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pairs_.find(key);
  if (it == pairs_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

SpectrumStore::Stats SpectrumStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string SpectrumStore::frame_path(const SpectrumKey& key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "sp-%016llx-%ux%u-%c%u.spec",
                static_cast<unsigned long long>(key.digest), key.height,
                key.width, key.real_fft ? 'r' : 'c',
                static_cast<unsigned>(key.tier));
  return config_.dir + "/" + name;
}

std::string SpectrumStore::pair_log_path() const {
  return config_.dir + "/pairs.log";
}

}  // namespace hs::stitch
