#include "xtsoc/snap/snapshot.hpp"

#include <cstdio>

#include "xtsoc/cosim/cosim.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/mapping/interface.hpp"
#include "xtsoc/obs/registry.hpp"

namespace xtsoc::snap {

namespace {

constexpr std::uint32_t kMagic = 0x504e5358;  // "XSNP" little-endian
constexpr std::uint32_t kTagHeader = 'H';
constexpr std::uint32_t kTagCosim = 'C';
constexpr std::uint32_t kTagFault = 'F';
constexpr std::uint32_t kTagObs = 'O';

std::string system_digest(const cosim::CoSimulation& cs) {
  return cs.system().interface().digest(cs.system().domain());
}

/// Verify the trailing CRC; returns a Reader positioned at the magic with
/// the CRC trailer excluded from its range.
Reader open_checked(const std::uint8_t* data, std::size_t size) {
  // magic + version + CRC is the absolute minimum plausible file.
  if (size < 12) {
    throw SnapError("snapshot too short to be valid (" +
                    std::to_string(size) + " bytes)");
  }
  const std::size_t body = size - 4;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(data[body + static_cast<std::size_t>(i)])
              << (8 * i);
  }
  if (fault::crc32(data, body) != stored) {
    throw SnapError("snapshot CRC mismatch (truncated or corrupted file)");
  }
  return Reader(data, body);
}

/// Magic, version and the 'H' section.
template <class Io, class Info>
void header_layout(Io& io, Info& info) {
  io.expect(kMagic, "not a snapshot file (bad magic)");
  io.expect(kSnapVersion, [](std::uint32_t version) {
    return "unsupported snapshot version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kSnapVersion) + ")";
  });
  io.begin_section(kTagHeader);
  io.str(info.digest);
  io.u64(info.cycle);
  io.boolean(info.has_fault_streams);
  io.boolean(info.has_obs_counters);
  io.end_section();
}

SnapshotInfo read_header(Reader& r) {
  SnapshotInfo info;
  info.version = kSnapVersion;
  header_layout(r, info);
  return info;
}

/// A section the header lists as `present`. A reader skips it when it has
/// no `part` to load it into.
template <class Io, class Part, class F>
void optional_section(Io& io, std::uint32_t tag, bool present, Part* part,
                      F&& body) {
  if (!present) return;
  io.begin_section(tag);
  if constexpr (Io::kLoading) {
    if (part == nullptr) {
      io.skip_section();
      return;
    }
  }
  body(*part);
  io.end_section();
}

/// Every section after the header, in file order.
template <class Io, class Cs, class Plan>
void sections_layout(Io& io, Cs& cs, Plan* plan, const SnapshotInfo& info) {
  io.begin_section(kTagCosim);
  io.state(cs);
  io.end_section();
  optional_section(io, kTagFault, info.has_fault_streams, plan,
                   [&](auto& p) { io.state(p); });
  if constexpr (Io::kLoading) {
    // Older builds checkpointed obs counters here; nothing reads them now.
    if (info.has_obs_counters) {
      io.begin_section(kTagObs);
      io.skip_section();
    }
  }
}

/// A span named `name` on the "snap" track when `obs` is tracing.
void begin_span(obs::ScopedSpan& span, obs::Registry* obs, const char* name) {
  if (obs != nullptr && obs->tracing()) {
    span.begin(obs, obs->track("snap"), name);
  }
}

}  // namespace

std::vector<std::uint8_t> save(const cosim::CoSimulation& cs,
                               const fault::Plan* plan, obs::Registry* obs) {
  obs::ScopedSpan span;
  begin_span(span, obs, "save");
  SnapshotInfo info;
  info.version = kSnapVersion;
  info.digest = system_digest(cs);
  info.cycle = cs.cycles();
  info.has_fault_streams = plan != nullptr;
  Writer w;
  header_layout(w, std::as_const(info));
  sections_layout(w, cs, plan, info);

  std::vector<std::uint8_t> out = w.take();
  const std::uint32_t crc = fault::crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

SnapshotInfo restore(cosim::CoSimulation& cs, const std::uint8_t* data,
                     std::size_t size, fault::Plan* plan, obs::Registry* obs,
                     RestoreOptions opts) {
  obs::ScopedSpan span;
  begin_span(span, obs, "restore");
  Reader r = open_checked(data, size);
  const SnapshotInfo info = read_header(r);

  const std::string expected = system_digest(cs);
  if (info.digest != expected) {
    throw SnapError(
        "snapshot was saved from a different system (interface digest " +
        info.digest + ", this elaboration has " + expected + ")");
  }
  sections_layout(r, cs, opts.load_fault_streams ? plan : nullptr, info);
  if (!r.at_end()) {
    throw SnapError("snapshot has trailing bytes after the last section");
  }
  return info;
}

SnapshotInfo inspect(const std::uint8_t* data, std::size_t size) {
  Reader r = open_checked(data, size);
  return read_header(r);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw SnapError("cannot open " + path + " for writing");
  }
  const std::size_t n =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = std::fclose(f) == 0 && n == bytes.size();
  if (!ok) throw SnapError("short write to " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapError("cannot open " + path);
  }
  std::vector<std::uint8_t> out;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    out.insert(out.end(), chunk, chunk + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) throw SnapError("read error on " + path);
  return out;
}

}  // namespace xtsoc::snap
