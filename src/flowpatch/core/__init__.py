from .raster import Image, FlowField, PixelMask, LUMA_WEIGHTS
from .floio import read_flo, write_flo, FLO_MAGIC
from .ppm import read_ppm, write_ppm, mask_to_image, image_to_mask
from .colorize import flow_to_color

__all__ = [
    "Image",
    "FlowField",
    "PixelMask",
    "LUMA_WEIGHTS",
    "read_flo",
    "write_flo",
    "FLO_MAGIC",
    "read_ppm",
    "write_ppm",
    "mask_to_image",
    "image_to_mask",
    "flow_to_color",
]
