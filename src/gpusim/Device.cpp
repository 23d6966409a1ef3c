//===- Device.cpp - Simulated device memory -------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include <algorithm>

using namespace tangram;
using namespace tangram::sim;

const char *tangram::sim::getPlaneName(Plane P) {
  switch (P) {
  case Plane::Int:
    return "int";
  case Plane::F32:
    return "f32";
  case Plane::F64:
    return "f64";
  }
  return "?";
}

void Buffer::allocPlane() {
  switch (P) {
  case Plane::F32:
    F32.resize(Count);
    break;
  case Plane::F64:
    F64.resize(Count);
    break;
  case Plane::Int:
    Ints.resize(Count);
    break;
  }
}

void Buffer::materialize() {
  if (!Virtual || !F32.empty() || !F64.empty() || !Ints.empty())
    return;
  allocPlane();
  for (size_t I = 0; I != Count; ++I)
    storeValue(I, Pattern.at(I));
}

void Device::writeFloats(BufferId Id, const std::vector<float> &Data) {
  Buffer &B = get(Id);
  assert(Data.size() <= B.size() && "upload larger than buffer");
  if (B.Virtual)
    return;
  if (B.P == Plane::F32) {
    std::copy(Data.begin(), Data.end(), B.F32.begin());
    return;
  }
  Cell C;
  for (size_t I = 0; I != Data.size(); ++I) {
    setF(C, Data[I]);
    B.storeValue(I, C);
  }
}

void Device::writeInts(BufferId Id, const std::vector<int> &Data) {
  Buffer &B = get(Id);
  assert(Data.size() <= B.size() && "upload larger than buffer");
  if (B.Virtual)
    return;
  if (B.P == Plane::Int) {
    std::copy(Data.begin(), Data.end(), B.Ints.begin());
    return;
  }
  Cell C;
  for (size_t I = 0; I != Data.size(); ++I) {
    setI(C, Data[I]);
    B.storeValue(I, C);
  }
}
