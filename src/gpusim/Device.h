//===- Device.h - Simulated device memory -----------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global-memory buffers of the simulated GPU. Each buffer stores its
/// elements in one typed plane chosen by its element type (see Plane):
/// `float` for F32, `double` for F64 and widened `long long` for every
/// integer type. Buffers that carry (value, index) pairs for arg-reductions
/// additionally own an index plane, created on the first store of a nonzero
/// index (or by a backend about to run a pair kernel that writes them).
///
/// Kernels see memory through Cells: Buffer::load widens one element into
/// a register value (both numeric views filled the way setI/setF fill
/// them, the index view 0 when the buffer has no index plane), and
/// Buffer::store narrows a register value back into the planes. The native
/// backend binds its typed views straight to the planes (zero-copy).
///
/// Buffers come in two flavors:
///  - dense: backed by host memory (the default);
///  - virtual: read-only pattern-generated contents for the paper's
///    multi-hundred-million-element benchmark sizes, where materializing
///    the array would need gigabytes. Virtual buffers have an analytic
///    reduction so benchmark results remain checkable. The simulator reads
///    the pattern directly; the native backend materializes the plane once
///    (Buffer::materialize) and keeps it for the buffer's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_DEVICE_H
#define TANGRAM_GPUSIM_DEVICE_H

#include "gpusim/Cell.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace tangram::sim {

/// A typed storage plane: the host type that holds values of a scalar type.
enum class Plane : unsigned char { Int, F32, F64 };

const char *getPlaneName(Plane P);

/// The plane that stores values of \p Ty.
inline Plane planeOf(ir::ScalarType Ty) {
  switch (Ty) {
  case ir::ScalarType::F32:
    return Plane::F32;
  case ir::ScalarType::F64:
    return Plane::F64;
  default:
    return Plane::Int;
  }
}

using BufferId = unsigned;

/// Pattern for virtual buffers: value(i) = Base + Scale * (i % Modulus).
struct VirtualPattern {
  double Base = 0.0;
  double Scale = 1.0;
  uint64_t Modulus = 97;

  Cell at(uint64_t I) const {
    Cell C;
    double V = Base + Scale * static_cast<double>(I % Modulus);
    C.F = static_cast<float>(V);
    C.I = static_cast<long long>(V);
    return C;
  }

  /// Analytic float32 sum of the first \p N values (reference for the
  /// benchmark harness; exact in double for the patterns used).
  double sumFirst(uint64_t N) const {
    uint64_t Full = N / Modulus, Rem = N % Modulus;
    double ModSum = static_cast<double>(Modulus - 1) * Modulus / 2.0;
    double RemSum = static_cast<double>(Rem - 1) * Rem / 2.0;
    return Base * static_cast<double>(N) +
           Scale * (static_cast<double>(Full) * ModSum + RemSum);
  }
};

/// A device-resident linear buffer (dense or virtual).
class Buffer {
public:
  /// A dense buffer, zero-filled.
  Buffer(ir::ScalarType Elem, size_t Count)
      : Elem(Elem), P(planeOf(Elem)), Count(Count) {
    allocPlane();
  }
  /// A virtual buffer: no storage until materialize().
  Buffer(ir::ScalarType Elem, size_t Count, const VirtualPattern &Pattern)
      : Elem(Elem), P(planeOf(Elem)), Count(Count), Virtual(true),
        Pattern(Pattern) {}

  ir::ScalarType getElemType() const { return Elem; }
  Plane getPlane() const { return P; }
  size_t size() const { return Count; }
  bool isVirtual() const { return Virtual; }
  const VirtualPattern &getPattern() const { return Pattern; }

  /// Element \p I as a register value.
  Cell load(size_t I) const {
    assert(I < Count && "device buffer read out of bounds");
    if (Virtual)
      return Pattern.at(I);
    Cell C;
    switch (P) {
    case Plane::F32:
      setF(C, F32[I]);
      break;
    case Plane::F64:
      setF(C, F64[I], ir::ScalarType::F64);
      break;
    case Plane::Int:
      setI(C, Ints[I]);
      break;
    }
    if (!Idx.empty())
      C.Idx = Idx[I];
    return C;
  }

  /// Stores the value lane of \p C that matches this buffer's plane, and
  /// its index lane (creating the index plane on the first nonzero one).
  /// Virtual buffers are read-only: callers report the write as an error.
  void store(size_t I, const Cell &C) {
    assert(I < Count && !Virtual && "invalid device buffer store");
    storeValue(I, C);
    if (C.Idx != 0)
      ensureIdx();
    if (!Idx.empty())
      Idx[I] = C.Idx;
  }

  /// Typed plane storage (the plane matching getPlane() holds size()
  /// elements; the others are null). Virtual buffers have none until
  /// materialize().
  float *getF32() { return F32.data(); }
  double *getF64() { return F64.data(); }
  long long *getInts() { return Ints.data(); }
  /// Index plane, or null when the buffer carries no index payload.
  long long *getIdx() { return Idx.empty() ? nullptr : Idx.data(); }

  /// Creates the (zeroed) index plane if the buffer has none.
  void ensureIdx() {
    if (Idx.empty())
      Idx.assign(Count, 0);
  }

  /// Fills a virtual buffer's plane from its pattern, once; a no-op for
  /// dense buffers and on every later call.
  void materialize();

private:
  friend class Device;

  void allocPlane();
  /// Writes the value lane of \p C matching the plane.
  void storeValue(size_t I, const Cell &C) {
    switch (P) {
    case Plane::F32:
      F32[I] = static_cast<float>(C.F);
      break;
    case Plane::F64:
      F64[I] = C.F;
      break;
    case Plane::Int:
      Ints[I] = C.I;
      break;
    }
  }

  ir::ScalarType Elem;
  Plane P;
  size_t Count;
  bool Virtual = false;
  VirtualPattern Pattern;
  std::vector<float> F32;
  std::vector<double> F64;
  std::vector<long long> Ints;
  std::vector<long long> Idx;
};

/// Owns all buffers of one simulated device.
class Device {
public:
  BufferId alloc(ir::ScalarType Elem, size_t Count) {
    Buffers.emplace_back(Elem, Count);
    return static_cast<BufferId>(Buffers.size() - 1);
  }

  /// Allocates a read-only pattern-generated buffer (no host memory).
  BufferId allocVirtual(ir::ScalarType Elem, size_t Count,
                        const VirtualPattern &Pattern) {
    Buffers.emplace_back(Elem, Count, Pattern);
    return static_cast<BufferId>(Buffers.size() - 1);
  }

  Buffer &get(BufferId Id) {
    assert(Id < Buffers.size() && "invalid buffer id");
    return Buffers[Id];
  }
  const Buffer &get(BufferId Id) const {
    assert(Id < Buffers.size() && "invalid buffer id");
    return Buffers[Id];
  }

  /// Uploads 32-bit floats (converted like setF into integer buffers).
  /// Uploads into virtual buffers are ignored.
  void writeFloats(BufferId Id, const std::vector<float> &Data);

  /// Uploads 32-bit integers (converted like setI into float buffers).
  void writeInts(BufferId Id, const std::vector<int> &Data);

  double readFloat(BufferId Id, size_t Index) const {
    return get(Id).load(Index).F;
  }
  long long readInt(BufferId Id, size_t Index) const {
    return get(Id).load(Index).I;
  }
  /// Index payload lane (pair reductions); 0 without an index plane.
  long long readIndex(BufferId Id, size_t Index) const {
    return get(Id).load(Index).Idx;
  }

  /// Allocation watermark for scoped/stack-style buffer lifetimes: buffers
  /// allocated after mark() can be dropped with release(), leaving earlier
  /// ids valid (ids are allocation indices). See DeviceScope.
  size_t mark() const { return Buffers.size(); }

  /// Drops every buffer allocated at or after \p Mark.
  void release(size_t Mark) {
    assert(Mark <= Buffers.size() && "release past allocation watermark");
    Buffers.erase(Buffers.begin() + static_cast<ptrdiff_t>(Mark),
                  Buffers.end());
  }

private:
  std::vector<Buffer> Buffers;
};

/// Releases, on scope exit, every buffer allocated on \p Dev during the
/// scope's lifetime.
class DeviceScope {
public:
  explicit DeviceScope(Device &Dev) : Dev(Dev), Mark(Dev.mark()) {}
  ~DeviceScope() { Dev.release(Mark); }
  DeviceScope(const DeviceScope &) = delete;
  DeviceScope &operator=(const DeviceScope &) = delete;

private:
  Device &Dev;
  size_t Mark;
};

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_DEVICE_H
