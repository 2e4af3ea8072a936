#include "cache/verdict_cache.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace buffy::cache {

namespace {

constexpr char kMagic[8] = {'B', 'U', 'F', 'Y', 'C', 'A', 'C', '1'};
constexpr std::size_t kMaxRecordBytes = 64u * 1024u * 1024u;
const char* const kSuffix = ".bfc";

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Calling thread's CPU seconds — excludes time blocked on the mutex or
/// I/O wait, so deltas attribute only work actually done. Used to keep
/// the clientSeconds/writerSeconds accounting in CacheStats.
double threadCpuNow() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  }
  return h;
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void putU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t getU32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t getU64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[at + i]))
         << (8 * i);
  }
  return v;
}

/// Flat length-prefixed key/value payload (a local sibling of the procs
/// WireMap — this layer sits below procs in the library DAG and cannot
/// use it).
void putField(std::string& out, std::string_view key, std::string_view val) {
  putU32(out, static_cast<std::uint32_t>(key.size()));
  out.append(key);
  putU32(out, static_cast<std::uint32_t>(val.size()));
  out.append(val);
}

std::optional<std::map<std::string, std::string>> parseFields(
    std::string_view payload) {
  std::map<std::string, std::string> fields;
  std::size_t at = 0;
  while (at < payload.size()) {
    if (payload.size() - at < 4) return std::nullopt;
    const std::uint32_t klen = getU32(payload, at);
    at += 4;
    if (payload.size() - at < klen) return std::nullopt;
    std::string key(payload.substr(at, klen));
    at += klen;
    if (payload.size() - at < 4) return std::nullopt;
    const std::uint32_t vlen = getU32(payload, at);
    at += 4;
    if (payload.size() - at < vlen) return std::nullopt;
    fields[std::move(key)] = std::string(payload.substr(at, vlen));
    at += vlen;
  }
  return fields;
}

std::string formatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::optional<std::int64_t> parseInt(const std::string& text) {
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parseDouble(const std::string& text) {
  if (text.empty()) return std::nullopt;
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string joinInts(const std::vector<std::int64_t>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out;
}

std::optional<std::vector<std::int64_t>> splitInts(const std::string& text) {
  std::vector<std::int64_t> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string piece = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto v = parseInt(piece);
    if (!v) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::string cacheKeyFor(const CacheKeyParts& parts) {
  std::string blob;
  putU64(blob, parts.problemHash);
  putField(blob, "query", parts.query);
  putU32(blob, static_cast<std::uint32_t>(parts.horizon));
  blob.push_back(parts.forVerify ? 1 : 0);
  putField(blob, "backend", parts.backend);
  putU32(blob, static_cast<std::uint32_t>(parts.model));
  blob.push_back(parts.symbolicInitialState ? 1 : 0);

  const std::uint64_t lo = fnv1a(blob, 1469598103934665603ull);
  const std::uint64_t hi = fnv1a(blob, 1099511628211ull * 31 + 7);
  char out[33];
  std::snprintf(out, sizeof out, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return out;
}

std::string VerdictCache::encodeRecord(const std::string& key,
                                       const CachedVerdict& value) {
  std::string payload;
  putField(payload, "key", key);
  putField(payload, "verdict", value.verdict);
  putField(payload, "detail", value.detail);
  putField(payload, "solveSeconds", formatDouble(value.solveSeconds));
  putField(payload, "witnessChecked", value.witnessChecked ? "1" : "0");
  putField(payload, "hasTrace", value.trace ? "1" : "0");
  if (value.trace) {
    putField(payload, "trace.horizon", std::to_string(value.trace->horizon));
    putField(payload, "trace.count",
             std::to_string(value.trace->series.size()));
    std::size_t i = 0;
    for (const auto& [name, values] : value.trace->series) {
      const std::string stem = "trace." + std::to_string(i);
      putField(payload, stem + ".name", name);
      putField(payload, stem + ".values", joinInts(values));
      ++i;
    }
  }

  std::string record(kMagic, sizeof kMagic);
  putU32(record, static_cast<std::uint32_t>(payload.size()));
  record += payload;
  putU64(record, fnv1a(payload, 1469598103934665603ull));
  return record;
}

std::optional<CachedVerdict> VerdictCache::decodeRecord(
    const std::string& key, std::string_view bytes) {
  if (bytes.size() < sizeof kMagic + 4 + 8) return std::nullopt;
  if (bytes.compare(0, sizeof kMagic,
                    std::string_view(kMagic, sizeof kMagic)) != 0) {
    return std::nullopt;
  }
  const std::uint32_t len = getU32(bytes, sizeof kMagic);
  if (len > kMaxRecordBytes) return std::nullopt;
  if (bytes.size() != sizeof kMagic + 4 + len + 8) return std::nullopt;
  const std::string_view payload = bytes.substr(sizeof kMagic + 4, len);
  const std::uint64_t want = getU64(bytes, sizeof kMagic + 4 + len);
  if (fnv1a(payload, 1469598103934665603ull) != want) return std::nullopt;

  const auto fields = parseFields(payload);
  if (!fields) return std::nullopt;
  auto get = [&](const char* name) -> const std::string* {
    const auto it = fields->find(name);
    return it == fields->end() ? nullptr : &it->second;
  };
  const std::string* recordKey = get("key");
  // A record renamed onto the wrong key (or a hand-copied file) must not
  // answer a different question.
  if (recordKey == nullptr || *recordKey != key) return std::nullopt;
  const std::string* verdict = get("verdict");
  const std::string* detail = get("detail");
  const std::string* seconds = get("solveSeconds");
  const std::string* checked = get("witnessChecked");
  const std::string* hasTrace = get("hasTrace");
  if (verdict == nullptr || detail == nullptr || seconds == nullptr ||
      checked == nullptr || hasTrace == nullptr || verdict->empty()) {
    return std::nullopt;
  }
  const auto secs = parseDouble(*seconds);
  if (!secs || (*checked != "0" && *checked != "1") ||
      (*hasTrace != "0" && *hasTrace != "1")) {
    return std::nullopt;
  }

  CachedVerdict out;
  out.verdict = *verdict;
  out.detail = *detail;
  out.solveSeconds = *secs;
  out.witnessChecked = *checked == "1";
  if (*hasTrace == "1") {
    const std::string* horizon = get("trace.horizon");
    const std::string* count = get("trace.count");
    if (horizon == nullptr || count == nullptr) return std::nullopt;
    const auto h = parseInt(*horizon);
    const auto n = parseInt(*count);
    if (!h || !n || *n < 0 || *n > 1'000'000) return std::nullopt;
    core::Trace trace;
    trace.horizon = static_cast<int>(*h);
    for (std::int64_t i = 0; i < *n; ++i) {
      const std::string stem = "trace." + std::to_string(i);
      const std::string* name = get((stem + ".name").c_str());
      const std::string* values = get((stem + ".values").c_str());
      if (name == nullptr || values == nullptr) return std::nullopt;
      const auto parsed = splitInts(*values);
      if (!parsed) return std::nullopt;
      trace.series[*name] = *parsed;
    }
    out.trace = std::move(trace);
  }
  return out;
}

VerdictCache::VerdictCache(VerdictCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    // Prime the usage estimate so a pre-populated shared directory is
    // governed by --cache-max-mb from the first store.
    if (DIR* dir = ::opendir(options_.dir.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.size() <= 4 ||
            name.compare(name.size() - 4, 4, kSuffix) != 0) {
          continue;
        }
        struct stat st{};
        if (::stat((options_.dir + "/" + name).c_str(), &st) == 0) {
          diskBytes_ += static_cast<std::uint64_t>(st.st_size);
        }
      }
      ::closedir(dir);
    }
    writer_ = std::thread([this] { writerLoop(); });
  }
}

VerdictCache::~VerdictCache() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopWriter_ = true;
    }
    writeCv_.notify_all();
    writer_.join();  // the loop drains the queue before honoring stop
  }
}

std::string VerdictCache::pathFor(const std::string& key) const {
  if (options_.dir.empty()) return "";
  return options_.dir + "/" + key + kSuffix;
}

std::optional<CachedVerdict> VerdictCache::lookup(const std::string& key) {
  const double cpuStart = threadCpuNow();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto charge = [&] { stats_.clientSeconds += threadCpuNow() - cpuStart; };
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    charge();
    return it->second->second;
  }
  if (!options_.dir.empty()) {
    if (auto fromDisk = diskLookup(key)) {
      rememberLocked(key, *fromDisk);
      ++stats_.hits;
      charge();
      return fromDisk;
    }
  }
  ++stats_.misses;
  charge();
  return std::nullopt;
}

std::optional<CachedVerdict> VerdictCache::diskLookup(const std::string& key) {
  const std::string path = pathFor(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  auto decoded = decodeRecord(key, bytes);
  if (!decoded) {
    // Torn write, flipped byte, version skew: delete the husk so later
    // lookups do not pay the read again, count it, read as a miss.
    ++stats_.validationFailures;
    ::unlink(path.c_str());
    return std::nullopt;
  }
  return decoded;
}

void VerdictCache::rememberLocked(const std::string& key,
                                  const CachedVerdict& value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = value;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, value);
  index_[key] = lru_.begin();
  while (lru_.size() > std::max<std::size_t>(1, options_.maxMemoryEntries)) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void VerdictCache::store(const std::string& key, const CachedVerdict& value) {
  enqueue(key, value, /*overwrite=*/false);
}

void VerdictCache::replace(const std::string& key,
                           const CachedVerdict& value) {
  enqueue(key, value, /*overwrite=*/true);
}

void VerdictCache::enqueue(const std::string& key, const CachedVerdict& value,
                           bool overwrite) {
  const double cpuStart = threadCpuNow();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  rememberLocked(key, value);
  if (options_.dir.empty()) {
    stats_.clientSeconds += threadCpuNow() - cpuStart;
    return;
  }
  // Write-behind: encode now (cheap, and the writer thread then never
  // touches CachedVerdict), land later. The existing-record check also
  // moves off the solve path — the writer stats the file before writing.
  writeQueue_.push_back({key, encodeRecord(key, value), overwrite});
  writeCv_.notify_one();
  stats_.clientSeconds += threadCpuNow() - cpuStart;
}

void VerdictCache::flushDisk() {
  std::unique_lock<std::mutex> lock(mutex_);
  drainCv_.wait(lock,
                [this] { return writeQueue_.empty() && writesInFlight_ == 0; });
}

void VerdictCache::writerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    writeCv_.wait(lock, [this] { return stopWriter_ || !writeQueue_.empty(); });
    if (writeQueue_.empty()) {
      if (stopWriter_) return;  // drained — safe to exit
      continue;
    }
    const PendingWrite write = std::move(writeQueue_.front());
    writeQueue_.pop_front();
    ++writesInFlight_;
    const std::uint64_t tempId = ++tempCounter_;
    lock.unlock();
    const double cpuStart = threadCpuNow();
    const std::uint64_t added =
        diskWrite(write.key, write.record, write.overwrite, tempId);
    lock.lock();
    diskBytes_ += added;
    if (added > 0 && options_.maxDiskBytes > 0 &&
        diskBytes_ > options_.maxDiskBytes) {
      enforceDiskLimit();
    }
    stats_.writerSeconds += threadCpuNow() - cpuStart;
    --writesInFlight_;
    if (writeQueue_.empty() && writesInFlight_ == 0) drainCv_.notify_all();
  }
}

std::uint64_t VerdictCache::diskWrite(const std::string& key,
                                      const std::string& record,
                                      bool overwrite, std::uint64_t tempId) {
  const std::string path = pathFor(key);
  struct stat st{};
  const bool existed = ::stat(path.c_str(), &st) == 0;
  if (existed && !overwrite) return 0;  // already on disk
  const std::uint64_t replaced =
      existed ? static_cast<std::uint64_t>(st.st_size) : 0;
  // Concurrent-writer safety: each writer lands its record under a unique
  // temp name, then renames into place. rename() is atomic, so a reader
  // (this process or another run sharing the directory) sees either no
  // file or a whole record — never a torn one. Two writers racing on one
  // key each hold a valid answer, though not necessarily the same witness
  // (solver seeds and backends differ); last rename wins.
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(tempId);
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return 0;  // unwritable dir: silently stay memory-only
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    if (!out) {
      out.close();
      ::unlink(temp.c_str());
      return 0;
    }
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    ::unlink(temp.c_str());
    return 0;
  }
  return record.size() > replaced ? record.size() - replaced : 0;
}

void VerdictCache::enforceDiskLimit() {
  struct Entry {
    std::string path;
    std::uint64_t bytes;
    std::int64_t mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() <= 4 || name.compare(name.size() - 4, 4, kSuffix) != 0) {
      continue;
    }
    const std::string path = options_.dir + "/" + name;
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) continue;
    entries.push_back({path, static_cast<std::uint64_t>(st.st_size),
                       static_cast<std::int64_t>(st.st_mtime)});
    total += static_cast<std::uint64_t>(st.st_size);
  }
  ::closedir(dir);
  diskBytes_ = total;
  if (total <= options_.maxDiskBytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  // Drop to ~90% of the cap so every store does not rescan the directory.
  const std::uint64_t target = options_.maxDiskBytes * 9 / 10;
  for (const Entry& entry : entries) {
    if (diskBytes_ <= target) break;
    if (::unlink(entry.path.c_str()) != 0) continue;
    diskBytes_ -= std::min(diskBytes_, entry.bytes);
    ++stats_.evictions;
  }
}

void VerdictCache::invalidate(const std::string& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (options_.dir.empty()) return;
  // A queued or in-flight write-behind store of this key must not land
  // after the unlink and resurrect the record. Invalidation is rare
  // (corruption, --cache-verify mismatch), so draining is affordable.
  for (auto qit = writeQueue_.begin(); qit != writeQueue_.end();) {
    qit = qit->key == key ? writeQueue_.erase(qit) : std::next(qit);
  }
  drainCv_.wait(lock,
                [this] { return writeQueue_.empty() && writesInFlight_ == 0; });
  ::unlink(pathFor(key).c_str());
}

void VerdictCache::countValidationFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.validationFailures;
}

void VerdictCache::addClientSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clientSeconds += seconds;
}

CacheStats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace buffy::cache
