"""The image fibration the way pdbundle built it before each triangle
lowered the minima of its own faces: for every lower simplex, a scan of
every triangle for the cofaces of that simplex. The oracle of
`test_image_fibration_matches_coface_scan` in test_generators.py."""
from fractions import Fraction
from typing import List, Optional

from pdbundle.complexes import InvariantError
from pdbundle.generators import IMAGE_BASE_VERTICES, image_complex, parse_ppm
from pdbundle.stratify import BaseMesh, PLFibration


def gen_image_fibration(ppm_text: str) -> PLFibration:
    width, height, pixels = parse_ppm(ppm_text)
    K, tri_pixel = image_complex(width, height)
    mesh = BaseMesh(IMAGE_BASE_VERTICES, [(0, 1, 2)])
    channel_of_corner = (2, 0, 1)
    values: List[List[Fraction]] = []
    for s in K.simplices:
        if len(s) == 3:
            pix = pixels[tri_pixel[s]]
            values.append([Fraction(pix[channel_of_corner[k]]) for k in range(3)])
        else:
            values.append([None, None, None])
    for i, s in enumerate(K.simplices):
        if len(s) == 3:
            continue
        mins: List[Optional[Fraction]] = [None, None, None]
        for tri, pix_idx in tri_pixel.items():
            if set(s) <= set(tri):
                pix = pixels[pix_idx]
                for k in range(3):
                    ch = Fraction(pix[channel_of_corner[k]])
                    mins[k] = ch if mins[k] is None or ch < mins[k] else mins[k]
        if any(x is None for x in mins):
            raise InvariantError(f"simplex {s} has no 2-simplex coface")
        values[i] = mins
    return PLFibration(K, mesh, values)
