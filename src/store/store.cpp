#include "store/store.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>

#if defined(__unix__) || defined(__APPLE__)
#define SILC_STORE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define SILC_STORE_MMAP 0
#endif

#include <cerrno>
#include <fstream>

#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace silc::store {

namespace {

constexpr char kMagic[8] = {'S', 'I', 'L', 'C', 'S', 'T', 'O', '1'};
constexpr std::uint32_t kFormatVersion = 1;

/// Whole-ms wall clock of a scoped operation, ceil-rounded so a performed
/// load/save always registers at least 1 in the counter.
struct MsClock {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  [[nodiscard]] long long ms() const {
    const double v = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return static_cast<long long>(std::ceil(v));
  }
};

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void append_str32(std::string& out, const std::string& s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Cursor over a raw byte range with the same bounds discipline as
/// Reader; parse() drives it record by record.
struct Cursor {
  const char* d;
  std::size_t n;
  std::size_t pos = 0;
  bool ok = true;

  bool take(std::size_t k) {
    if (!ok || n - pos < k) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(d[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(d[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::string str32() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    std::string s(d + pos, len);
    pos += len;
    return s;
  }
};

/// Open a temp file that no other save shares, next to `path` so the
/// commit rename stays atomic: "<path>.tmp.<salt>.<n>" with a per-process
/// random salt and a per-save counter, created exclusively ("x"), so a
/// name collision is a retry, never a shared file. Concurrent writers of
/// one store, threads or processes, each write their own file, and each
/// rename commits a whole one. Sets `tmp` to the name; nullptr when no
/// file can be created.
std::FILE* open_private_tmp(const std::string& path, std::string& tmp) {
  static const unsigned salt = std::random_device{}();
  static std::atomic<unsigned> next{0};
  for (int attempt = 0; attempt < 16; ++attempt) {
    tmp = path + ".tmp." + std::to_string(salt) + "." +
          std::to_string(next.fetch_add(1, std::memory_order_relaxed));
    if (std::FILE* f = std::fopen(tmp.c_str(), "wbx")) return f;
    if (errno != EEXIST) return nullptr;
  }
  return nullptr;
}

}  // namespace

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- writer --

void Writer::u32(std::uint32_t v) { append_u32(out_, v); }

void Writer::u64(std::uint64_t v) { append_u64(out_, v); }

void Writer::str(const std::string& s) { append_str32(out_, s); }

void Writer::point(const geom::Point& p) {
  i64(p.x);
  i64(p.y);
}

void Writer::rect(const geom::Rect& r) {
  i64(r.x0);
  i64(r.y0);
  i64(r.x1);
  i64(r.y1);
}

// ---------------------------------------------------------------- reader --

bool Reader::take(std::size_t n) {
  if (!ok_ || d_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(d_[pos_++]);
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(d_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(d_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string Reader::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string s(d_.data() + pos_, len);
  pos_ += len;
  return s;
}

geom::Point Reader::point() {
  geom::Point p;
  p.x = i64();
  p.y = i64();
  return p;
}

geom::Rect Reader::rect() {
  geom::Rect r;
  r.x0 = i64();
  r.y0 = i64();
  r.x1 = i64();
  r.y1 = i64();
  return r;
}

// ----------------------------------------------------------------- store --

void Store::put(const std::string& stream, std::string key,
                std::string payload) {
  auto& s = streams_[stream];
  const auto it = s.find(key);
  if (it != s.end()) {
    bytes_ -= it->second.size() + key.size() + stream.size();
    it->second = std::move(payload);
    bytes_ += it->second.size() + key.size() + stream.size();
    return;
  }
  bytes_ += stream.size() + key.size() + payload.size();
  s.emplace(std::move(key), std::move(payload));
}

const std::string* Store::get(const std::string& stream,
                              const std::string& key) const {
  const auto sit = streams_.find(stream);
  if (sit == streams_.end()) return nullptr;
  const auto it = sit->second.find(key);
  return it != sit->second.end() ? &it->second : nullptr;
}

void Store::for_each(
    const std::string& stream,
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  const auto sit = streams_.find(stream);
  if (sit == streams_.end()) return;
  for (const auto& [key, payload] : sit->second) fn(key, payload);
}

void Store::clear() {
  streams_.clear();
  bytes_ = 0;
  loaded_ = false;
}

std::size_t Store::records() const {
  std::size_t n = 0;
  for (const auto& [stream, recs] : streams_) n += recs.size();
  return n;
}

bool Store::parse(const char* data, std::size_t size) {
  Cursor c{data, size};
  if (!c.take(8) || std::memcmp(data, kMagic, 8) != 0) {
    load_error_ = "store: bad magic (not a silc store file)";
    return false;
  }
  c.pos = 8;
  const std::uint32_t format = c.u32();
  if (c.ok && format != kFormatVersion) {
    load_error_ = "store: format version " + std::to_string(format) +
                  " != " + std::to_string(kFormatVersion);
    return false;
  }
  const std::uint64_t schema = c.u64();
  if (c.ok && schema != schema_) {
    load_error_ = "store: schema version " + std::to_string(schema) +
                  " != " + std::to_string(schema_);
    return false;
  }
  const std::uint64_t count = c.u64();
  if (!c.ok) {
    load_error_ = "store: truncated header";
    return false;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string stream = c.str32();
    std::string key = c.str32();
    std::string payload = c.str32();
    const std::uint64_t want = c.u64();
    if (!c.ok) {
      load_error_ =
          "store: truncated record " + std::to_string(i) + " of " +
          std::to_string(count);
      return false;
    }
    const std::uint64_t got = fnv1a(payload, fnv1a(key, fnv1a(stream)));
    if (got != want) {
      load_error_ = "store: checksum mismatch on record " + std::to_string(i);
      return false;
    }
    put(stream, std::move(key), std::move(payload));
  }
  if (c.pos != c.n) {
    load_error_ = "store: " + std::to_string(c.n - c.pos) +
                  " trailing bytes after last record";
    return false;
  }
  return true;
}

bool Store::load(const std::string& path) {
  const MsClock clock;
  clear();
  load_error_.clear();
  bool read_something = false;
  try {
    SILC_FAULT_POINT("store.load");
#if SILC_STORE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return false;  // missing file: silent cold start
      // Any other open failure is reported like corruption — degrade
      // with a reason (and count it below).
      load_error_ = "store: cannot open " + path;
      read_something = true;
    }
    struct stat st {};
    bool ok = false;
    if (fd < 0) {
      // fall through to the cold-start tail
    } else if (::fstat(fd, &st) == 0 && st.st_size >= 0) {
      read_something = true;
      const auto size = static_cast<std::size_t>(st.st_size);
      if (size == 0) {
        load_error_ = "store: empty file";
      } else {
        void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
          ok = parse(static_cast<const char*>(map), size);
          ::munmap(map, size);
        } else {
          // mmap refused (unusual fs): fall back to a plain read.
          std::string buf(size, '\0');
          std::size_t off = 0;
          while (off < size) {
            const ::ssize_t n = ::read(fd, buf.data() + off, size - off);
            if (n <= 0) break;
            off += static_cast<std::size_t>(n);
          }
          ok = off == size && parse(buf.data(), size);
          if (off != size && load_error_.empty()) {
            load_error_ = "store: short read";
          }
        }
      }
    } else {
      load_error_ = "store: cannot stat " + path;
    }
    if (fd >= 0) ::close(fd);
    if (ok) {
      loaded_ = true;
      SILC_OBS_COUNT("store.load_ms", clock.ms());
      return true;
    }
#else
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;  // missing file: silent cold start
    read_something = true;
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (buf.empty()) {
      load_error_ = "store: empty file";
    } else if (parse(buf.data(), buf.size())) {
      loaded_ = true;
      SILC_OBS_COUNT("store.load_ms", clock.ms());
      return true;
    }
#endif
  } catch (const std::exception& e) {
    // An injected "store.load" fault (or anything else thrown mid-parse)
    // degrades exactly like corruption: cold start with a reason.
    load_error_ = std::string("store: load failed (") + e.what() + ")";
    read_something = true;
  }
  // Cold start: drop whatever half-parsed state accumulated.
  clear();
  if (read_something || !load_error_.empty()) {
    SILC_OBS_COUNT("store.poisoned", 1);
  }
  SILC_OBS_COUNT("store.load_ms", clock.ms());
  return false;
}

bool Store::save(const std::string& path) const {
  const MsClock clock;
  save_error_.clear();
  std::string out;
  try {
    SILC_FAULT_POINT("store.save");
    out.append(kMagic, sizeof kMagic);
    append_u32(out, kFormatVersion);
    append_u64(out, schema_);
    append_u64(out, static_cast<std::uint64_t>(records()));
    bool corrupt_next = SILC_FAULT_CORRUPT_AT("store.save");
    for (const auto& [stream, recs] : streams_) {
      for (const auto& [key, payload] : recs) {
        append_str32(out, stream);
        append_str32(out, key);
        append_str32(out, payload);
        std::uint64_t checksum = fnv1a(payload, fnv1a(key, fnv1a(stream)));
        if (corrupt_next) {
          // Injected torn-write: one record's checksum lies, so the next
          // load must detect it and cold-start the whole file.
          checksum ^= 0x5a5a5a5a5a5a5a5aULL;
          corrupt_next = false;
        }
        append_u64(out, checksum);
      }
    }
  } catch (const std::exception& e) {
    save_error_ = std::string("store: save failed (") + e.what() + ")";
    SILC_OBS_COUNT("store.save_ms", clock.ms());
    return false;
  }
  std::string tmp;
  std::FILE* f = open_private_tmp(path, tmp);
  if (f == nullptr) {
    save_error_ = "store: cannot write " + tmp;
    SILC_OBS_COUNT("store.save_ms", clock.ms());
    return false;
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != out.size() || !flushed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    save_error_ = "store: cannot commit " + path;
    std::remove(tmp.c_str());
    SILC_OBS_COUNT("store.save_ms", clock.ms());
    return false;
  }
  file_bytes_ = out.size();
  SILC_OBS_COUNT("store.save_ms", clock.ms());
  return true;
}

}  // namespace silc::store
