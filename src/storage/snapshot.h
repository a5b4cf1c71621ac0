// Copyright 2026 The OCTOPUS Reproduction Authors
// The OCT2 paged snapshot format: a query-optimized on-disk layout of a
// mesh's vertex positions and CSR adjacency in fixed-size pages, plus the
// surface vertex list the OCTOPUS probe needs. With the Hilbert layout
// (paper Sec. IV-H1) the arrays are clustered so the crawl's random
// adjacency accesses land on few pages — the data organization the paper
// uses to make disk-resident crawling cheap.
//
// File layout (little endian, `page_bytes`-sized pages):
//   page 0:            SnapshotHeader, zero-padded
//   positions section: Vec3 per vertex, entries never straddle a page
//   adj-offsets section: uint32 per vertex + 1 (CSR offsets)
//   adjacency section: uint32 neighbor ids, CSR-concatenated
//   surface section:   uint32 surface vertex ids, ascending
// Every section starts on a page boundary and its last page is
// zero-padded. Tetrahedra are NOT stored: a snapshot is a derived query
// artifact (the OCT1 mesh file remains the source of truth), and the
// query paths only ever touch positions, adjacency and the surface.
#ifndef OCTOPUS_STORAGE_SNAPSHOT_H_
#define OCTOPUS_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vec3.h"
#include "mesh/types.h"
#include "storage/page.h"

namespace octopus::storage {

/// Vertex ordering a snapshot was written in.
enum class SnapshotLayout : uint32_t {
  kOriginal = 0,  ///< ids as they arrived (arbitrary order)
  kHilbert = 1,   ///< ids sorted by 3D Hilbert index of the position
};

const char* LayoutName(SnapshotLayout layout);

/// \brief Knobs of `WriteSnapshot` (and `mesh_io`'s `SaveSnapshot`).
struct SnapshotOptions {
  size_t page_bytes = kDefaultPageBytes;
  SnapshotLayout layout = SnapshotLayout::kOriginal;
};

/// Smallest supported page: must hold the superblock and at least one
/// position entry.
inline constexpr size_t kMinPageBytes = 128;

/// \brief The superblock, stored at the start of page 0.
struct SnapshotHeader {
  char magic[4];         ///< "OCT2"
  uint32_t version;      ///< format version, currently 1
  uint32_t page_bytes;   ///< page size this file was written with
  uint32_t layout;       ///< SnapshotLayout
  uint64_t num_vertices;
  uint64_t num_adj_entries;      ///< total CSR adjacency entries (2E)
  uint64_t num_surface_vertices;
  uint64_t num_tets;             ///< provenance only; tets are not stored
  uint64_t positions_start_page;
  uint64_t adj_offsets_start_page;
  uint64_t adj_start_page;
  uint64_t surface_start_page;
  uint64_t num_pages;    ///< total pages incl. the superblock

  size_t PositionsPerPage() const { return page_bytes / sizeof(Vec3); }
  size_t U32PerPage() const { return page_bytes / sizeof(uint32_t); }
  size_t FileBytes() const { return num_pages * page_bytes; }
};

static_assert(sizeof(SnapshotHeader) <= kMinPageBytes,
              "superblock must fit the smallest page");

inline constexpr uint32_t kSnapshotVersion = 1;

/// Number of `page_bytes` pages needed for `entries` entries of
/// `entry_bytes` each, entries never straddling a page boundary.
uint64_t PagesForEntries(uint64_t entries, size_t entry_bytes,
                         size_t page_bytes);

/// Writes an OCT2 snapshot from raw arrays. `adj_offsets` must have
/// `positions.size() + 1` entries with `adj_offsets.back() == adj.size()`;
/// `surface_vertices` ascending. `num_tets` is recorded for provenance.
/// The arrays are written as given — apply a Hilbert permutation first
/// (see `mesh_io`'s `SaveSnapshot`) and pass `layout = kHilbert` to
/// record it.
Status WriteSnapshot(std::span<const Vec3> positions,
                     std::span<const uint32_t> adj_offsets,
                     std::span<const VertexId> adj,
                     std::span<const VertexId> surface_vertices,
                     uint64_t num_tets, SnapshotLayout layout,
                     size_t page_bytes, const std::string& path);

/// Reads and validates the superblock (magic, version, page geometry,
/// section layout, file size). Cheap: touches only page 0 and the file
/// size, never the data pages.
Result<SnapshotHeader> ReadSnapshotHeader(const std::string& path);

/// Reads the positions section of the snapshot at `path` (header `h`)
/// one page at a time with plain sequential file reads, outside any
/// buffer pool (no pool counter moves), and hands each page's positions
/// to `visit` in id order. Holds one page of positions at a time.
/// Corruption if the section is truncated.
Status VisitSnapshotPositions(
    const std::string& path, const SnapshotHeader& h,
    const std::function<void(std::span<const Vec3>)>& visit);

/// The whole positions section into `out`, through
/// `VisitSnapshotPositions`.
Status ReadSnapshotPositions(const std::string& path, const SnapshotHeader& h,
                             std::vector<Vec3>* out);

}  // namespace octopus::storage

#endif  // OCTOPUS_STORAGE_SNAPSHOT_H_
