// Initial file-tree snapshot: the parts of the file system a traced program
// accesses, captured on the source machine and restored on the target before
// replay (paper Sec. 4.3.2). File contents are not recorded — only directory
// structure, file sizes, symlink targets, and extended-attribute names.
#ifndef SRC_TRACE_SNAPSHOT_H_
#define SRC_TRACE_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace artc::trace {

enum class SnapshotEntryType : uint8_t { kDir, kFile, kSymlink, kSpecial };

struct SnapshotEntry {
  SnapshotEntryType type = SnapshotEntryType::kFile;
  std::string path;               // absolute, normalized
  uint64_t size = 0;              // files: length in bytes
  std::string symlink_target;     // symlinks
  std::vector<std::string> xattr_names;  // xattrs present at snapshot time
  std::string special_kind;       // specials: "random", "urandom", "null"
};

struct FsSnapshot {
  std::vector<SnapshotEntry> entries;  // parents always precede children

  void AddDir(const std::string& path);
  void AddFile(const std::string& path, uint64_t size);
  void AddSymlink(const std::string& path, const std::string& target);
  void AddSpecial(const std::string& path, const std::string& kind);

  const SnapshotEntry* Find(const std::string& path) const;
  // Ensures every ancestor directory of every entry exists in the snapshot,
  // inserting missing ones; then sorts parents-before-children.
  void Canonicalize();

  // Returns a snapshot containing this one plus `other`, for overlaying
  // multiple benchmarks into one tree (paper Sec. 4.3.2, concurrent replay
  // of multiple traces). Conflicting entries keep the first snapshot's
  // definition; sizes take the max.
  FsSnapshot Overlay(const FsSnapshot& other) const;
};

// Parse the snapshot text format (the inverse of WriteSnapshot). Malformed
// input (a line with no path, a symlink line without "->", an unknown entry
// type) returns false with a one-line diagnostic in *error; *out is then
// left untouched.
bool ReadSnapshot(std::istream& in, FsSnapshot* out, std::string* error);
bool ReadSnapshotFile(const std::string& path, FsSnapshot* out, std::string* error);
void WriteSnapshot(const FsSnapshot& snapshot, std::ostream& out);
void WriteSnapshotFile(const FsSnapshot& snapshot, const std::string& path);

}  // namespace artc::trace

#endif  // SRC_TRACE_SNAPSHOT_H_
