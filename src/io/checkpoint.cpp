#include "io/checkpoint.hpp"

#include <cstring>

namespace pdsl::io {

namespace {

constexpr std::uint64_t kMagicSingle = 0x5044534C'4D4F4431ULL;  // "PDSLMOD1"
constexpr std::uint64_t kMagicFleet = 0x5044534C'464C5431ULL;   // "PDSLFLT1"

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in, const char* what) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error(std::string("checkpoint: truncated reading ") + what);
  return v;
}

void write_floats(std::ofstream& out, const std::vector<float>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
}

/// Bytes between the read position and the end of the file: every count
/// read from a file is checked against it before it sizes an allocation.
std::uint64_t bytes_left(std::ifstream& in) {
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  return static_cast<std::uint64_t>(end - pos);
}

std::vector<float> read_floats(std::ifstream& in, std::size_t n) {
  if (n > bytes_left(in) / sizeof(float)) {
    throw std::runtime_error("checkpoint: truncated reading parameters");
  }
  std::vector<float> v(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(float)));
  if (!in) throw std::runtime_error("checkpoint: truncated reading parameters");
  return v;
}

/// A magic as the 8 characters it spells ("PDSLRUN3"), '?' for non-ASCII.
std::string magic_name(std::uint64_t magic) {
  std::string s = "\"";
  for (int shift = 56; shift >= 0; shift -= 8) {
    const auto c = static_cast<char>((magic >> shift) & 0xFF);
    s += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return s + "\"";
}

void check_version(std::ifstream& in, const char* who, const std::string& path) {
  const auto version = read_u64(in, "version");
  if (version != kCheckpointVersion) {
    throw std::runtime_error(std::string(who) + ": unsupported checkpoint version " +
                             std::to_string(version) + " in " + path + " (expected " +
                             std::to_string(kCheckpointVersion) + ")");
  }
}

}  // namespace

std::uint64_t fnv1a(const std::vector<float>& data) {
  return fnv1a_bytes(data.data(), data.size() * sizeof(float));
}

void save_params(const std::string& path, const std::vector<float>& params) {
  AtomicFile file(path, "save_params");
  std::ofstream& out = file.stream();
  write_u64(out, kMagicSingle);
  write_u64(out, kCheckpointVersion);
  write_u64(out, params.size());
  write_u64(out, fnv1a(params));
  write_floats(out, params);
  file.commit();
}

std::vector<float> load_params(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_params: cannot open " + path);
  if (read_u64(in, "magic") != kMagicSingle) {
    throw std::runtime_error("load_params: bad magic in " + path);
  }
  check_version(in, "load_params", path);
  const auto dim = read_u64(in, "dimension");
  const auto checksum = read_u64(in, "checksum");
  auto params = read_floats(in, dim);
  if (fnv1a(params) != checksum) {
    throw std::runtime_error("load_params: checksum mismatch in " + path);
  }
  return params;
}

void save_fleet(const std::string& path, const std::vector<std::vector<float>>& models) {
  if (models.empty()) throw std::invalid_argument("save_fleet: empty fleet");
  const std::size_t dim = models[0].size();
  for (const auto& m : models) {
    if (m.size() != dim) throw std::invalid_argument("save_fleet: ragged fleet");
  }
  AtomicFile file(path, "save_fleet");
  std::ofstream& out = file.stream();
  write_u64(out, kMagicFleet);
  write_u64(out, kCheckpointVersion);
  write_u64(out, models.size());
  write_u64(out, dim);
  for (const auto& m : models) {
    write_u64(out, fnv1a(m));
    write_floats(out, m);
  }
  file.commit();
}

std::vector<std::vector<float>> load_fleet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_fleet: cannot open " + path);
  if (read_u64(in, "magic") != kMagicFleet) {
    throw std::runtime_error("load_fleet: bad magic in " + path);
  }
  check_version(in, "load_fleet", path);
  const auto count = read_u64(in, "count");
  const auto dim = read_u64(in, "dimension");
  if (count > bytes_left(in) / sizeof(std::uint64_t)) {
    throw std::runtime_error("load_fleet: truncated reading agents of " + path);
  }
  std::vector<std::vector<float>> models;
  models.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto checksum = read_u64(in, "checksum");
    auto m = read_floats(in, dim);
    if (fnv1a(m) != checksum) {
      throw std::runtime_error("load_fleet: checksum mismatch in agent " + std::to_string(i));
    }
    models.push_back(std::move(m));
  }
  return models;
}

void save_blob(const std::string& path, std::uint64_t magic, const ByteBuffer& body,
               const char* who) {
  AtomicFile file(path, who);
  std::ofstream& out = file.stream();
  write_u64(out, magic);
  write_u64(out, kCheckpointVersion);
  write_u64(out, body.size());
  write_u64(out, fnv1a_bytes(body.data(), body.size()));
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  file.commit();
}

ByteBuffer load_blob(const std::string& path, std::uint64_t magic, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string(who) + ": cannot open " + path);
  if (const auto found = read_u64(in, "magic"); found != magic) {
    throw std::runtime_error(std::string(who) + ": bad magic " + magic_name(found) + " in " +
                             path + " (expected " + magic_name(magic) + ")");
  }
  check_version(in, who, path);
  const auto size = read_u64(in, "size");
  const auto checksum = read_u64(in, "checksum");
  if (size > bytes_left(in)) {
    throw std::runtime_error(std::string(who) + ": truncated reading body of " + path);
  }
  ByteBuffer body(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(body.data()), static_cast<std::streamsize>(body.size()));
  if (!in) {
    throw std::runtime_error(std::string(who) + ": truncated reading body of " + path);
  }
  if (fnv1a_bytes(body.data(), body.size()) != checksum) {
    throw std::runtime_error(std::string(who) + ": checksum mismatch in " + path);
  }
  return body;
}

}  // namespace pdsl::io
